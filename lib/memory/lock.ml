open Cm_engine
open Cm_machine
open Thread.Infix

type t = {
  mem : Shmem.t;
  word : Shmem.addr;
  base_backoff : int;
  max_backoff : int;
  mutable holder : int option;  (* maintained only under Check *)
}

let default_base_backoff = 64

let default_max_backoff = 4096

let create ?(base_backoff = default_base_backoff) ?(max_backoff = default_max_backoff) mem ~home
    =
  { mem; word = Shmem.alloc mem ~home ~words:1; base_backoff; max_backoff; holder = None }


let acquire l =
  let rec attempt backoff =
    (* Test&set: 0 -> 1; the old value tells us whether we won. *)
    let* old = Shmem.rmw l.mem l.word (fun _ -> 1) in
    if old = 0 then
      if Check.enabled () then
        let* me = Thread.tid in
        l.holder <- Some me;
        Thread.return ()
      else Thread.return ()
    else spin backoff
  and spin backoff =
    (* Spin on a read (hits the local Shared copy until the holder's
       release invalidates it), with randomized exponential backoff. *)
    let* r = Thread.rng in
    let jitter = Rng.int r backoff in
    let* () = Thread.sleep (backoff + jitter) in
    let* v = Shmem.read l.mem l.word in
    if v = 0 then attempt l.base_backoff else spin (min (backoff * 2) l.max_backoff)
  in
  attempt l.base_backoff

let release l =
  if not (Check.enabled ()) then Shmem.write l.mem l.word 0
  else
    let* me = Thread.tid in
    (match l.holder with
    | Some h when h = me -> ()
    | Some h -> Check.failf "Lock: released by tid %d, but tid %d holds it" me h
    | None -> Check.failf "Lock: released by tid %d, but it is not held" me);
    l.holder <- None;
    (* Same coherence cost as the plain write: both are one exclusive
       ownership transfer of the lock word's line. *)
    let* old = Shmem.rmw l.mem l.word (fun _ -> 0) in
    Check.require (old = 1) "Lock: word read %d at release (expected 1)" old;
    Thread.return ()

let with_lock l body =
  let* () = acquire l in
  let* result = body () in
  let* () = release l in
  Thread.return result

let holder_free l = Shmem.peek l.mem l.word = 0
