open Cm_engine
open Cm_machine
open Thread.Infix

type t = {
  mem : Shmem.t;
  word : Shmem.addr;
  mutable writer_holder : int option;  (* maintained only under Check *)
}

(* Spin backoff bounds, in cycles: the first retry waits about
   [base_backoff], each later one doubles up to [max_backoff]. *)
let base_backoff = 64

let max_backoff = 2048

let create mem ~home = { mem; word = Shmem.alloc mem ~home ~words:1; writer_holder = None }

let writer = -1

let backoff_then backoff k =
  let* r = Thread.rng in
  let jitter = Rng.int r (max 1 backoff) in
  let* () = Thread.sleep (backoff + jitter) in
  k (min (backoff * 2) max_backoff)

let acquire_read l =
  let rec attempt backoff =
    (* Conditional increment: fails (leaves the word alone) while a
       writer holds the lock. *)
    let* old = Shmem.rmw l.mem l.word (fun v -> if v >= 0 then v + 1 else v) in
    if old >= 0 then Thread.return () else backoff_then backoff attempt
  in
  attempt base_backoff

let release_read l =
  let* old = Shmem.rmw l.mem l.word (fun v -> v - 1) in
  if Check.enabled () then
    Check.require (old >= 1)
      "Rwlock: release_read with reader count %d (no matching acquire_read)" old;
  Thread.return ()

let acquire_write l =
  let rec attempt backoff =
    let* old = Shmem.rmw l.mem l.word (fun v -> if v = 0 then writer else v) in
    if old = 0 then
      if Check.enabled () then
        let* me = Thread.tid in
        l.writer_holder <- Some me;
        Thread.return ()
      else Thread.return ()
    else backoff_then backoff attempt
  in
  attempt base_backoff

let release_write l =
  if not (Check.enabled ()) then Shmem.write l.mem l.word 0
  else
    let* me = Thread.tid in
    (match l.writer_holder with
    | Some h when h = me -> ()
    | Some h -> Check.failf "Rwlock: release_write by tid %d, but tid %d holds it" me h
    | None -> Check.failf "Rwlock: release_write by tid %d, but no writer is inside" me);
    l.writer_holder <- None;
    let* old = Shmem.rmw l.mem l.word (fun _ -> 0) in
    Check.require (old = writer) "Rwlock: word read %d at release_write (expected %d)" old
      writer;
    Thread.return ()

let with_read l body =
  let* () = acquire_read l in
  let* result = body () in
  let* () = release_read l in
  Thread.return result

let with_write l body =
  let* () = acquire_write l in
  let* result = body () in
  let* () = release_write l in
  Thread.return result

let free l = Shmem.peek l.mem l.word = 0
