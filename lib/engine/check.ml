exception Violation of string

(* The enable switch is the one piece of checker state every domain must
   see: it is flipped by the main domain between runs and only read on
   the hot paths, so a plain atomic is both safe and free. *)
let enabled_flag = Atomic.make false (* lint: allow global-state — cross-domain on/off toggle, vetted *)

let enabled () = Atomic.get enabled_flag

let fail msg = raise (Violation msg)

let failf fmt = Format.kasprintf fail fmt

let require cond fmt =
  if cond then Format.ikfprintf ignore Format.str_formatter fmt else failf fmt

module Linear = struct
  type token = { id : int; what : string; mutable used : bool }

  (* The token registry is domain-local: a simulation runs entirely on
     one domain, so a token is always created and consumed on the same
     domain, and two machines running on two domains never share (or
     race on) a table. *)
  type registry = { mutable next_id : int; live : (int, string) Hashtbl.t }

  let fresh_registry () = { next_id = 0; live = Hashtbl.create 256 }

  let registry_key = Domain.DLS.new_key fresh_registry

  let registry () = Domain.DLS.get registry_key

  let make ~what =
    let r = registry () in
    let id = r.next_id in
    r.next_id <- id + 1;
    (* [live] holds tokens created but not yet used; the value is the
       creation label so leaks can be reported by name. *)
    Hashtbl.replace r.live id what;
    { id; what; used = false }

  let use tok =
    if tok.used then failf "continuation resumed twice: %s" tok.what;
    tok.used <- true;
    Hashtbl.remove (registry ()).live tok.id

  let outstanding () = Hashtbl.length (registry ()).live

  let outstanding_whats () =
    (* The fold feeds a sort, so table order never escapes. *)
    Hashtbl.fold (fun _ what acc -> what :: acc) (registry ()).live [] (* lint: allow hashtbl-order *)
    |> List.sort String.compare

  let reset () =
    let r = registry () in
    Hashtbl.reset r.live;
    r.next_id <- 0

  (* Run [f] under a registry of its own and restore the caller's
     afterwards — how the pool keeps one job's dropped continuations
     from surviving into the next job scheduled on the same domain. *)
  let scoped f =
    let saved = registry () in
    Domain.DLS.set registry_key (fresh_registry ());
    match f () with
    | v ->
      Domain.DLS.set registry_key saved;
      v
    | exception e ->
      Domain.DLS.set registry_key saved;
      raise e
end

let linear ~what f =
  if not (Atomic.get enabled_flag) then f
  else begin
    let tok = Linear.make ~what in
    fun v ->
      Linear.use tok;
      f v
  end

module Trail = struct
  (* Like the enable switch, the recording flag is set by the main
     domain and read by whichever domain runs the machine. *)
  let recording = Atomic.make false (* lint: allow global-state — cross-domain on/off toggle, vetted *)

  (* The digests themselves are domain-local (newest first); a pool
     worker records into its own list and Pool.await splices each job's
     fragment into the submitting domain's trail in submission order,
     so the trail a caller observes is identical at any [-j]. *)
  let entries_key : string list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

  let entries () = Domain.DLS.get entries_key

  let set_recording b = Atomic.set recording b

  let digest_of_run ~clock ~fired ~stats =
    let b = Buffer.create 512 in
    Buffer.add_string b (Printf.sprintf "clock=%d fired=%d" clock fired);
    List.iter
      (fun (name, v) -> Buffer.add_string b (Printf.sprintf " %s=%d" name v))
      (Stats.counters stats);
    Digest.to_hex (Digest.string (Buffer.contents b))

  let record_run ~clock ~fired ~stats =
    if Atomic.get recording then begin
      let r = entries () in
      r := digest_of_run ~clock ~fired ~stats :: !r
    end

  let trail () = List.rev !(entries ())

  let reset () = entries () := []

  let capture f =
    let r = entries () in
    let saved = !r in
    r := [];
    match f () with
    | v ->
      let fragment = List.rev !r in
      r := saved;
      (v, fragment)
    | exception e ->
      r := saved;
      raise e

  let append fragment =
    let r = entries () in
    List.iter (fun digest -> r := digest :: !r) fragment
end

let capture_job f = Linear.scoped (fun () -> Trail.capture f)

let set_enabled b = Atomic.set enabled_flag b

let reset () =
  Linear.reset ();
  Trail.reset ()
