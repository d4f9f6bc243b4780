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

let set_enabled b = Atomic.set enabled_flag b

let reset () = Linear.reset ()
