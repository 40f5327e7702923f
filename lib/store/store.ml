let format_version = 1

type stats = {
  entries : int;
  loaded : int;
  stale_dropped : int;
  torn_dropped : int;
  appended : int;
}

type t = {
  path : string;
  salt : string;
  tbl : (string, string) Hashtbl.t;
  m : Mutex.t;
  ro : bool;
  mutable lock_fd : Unix.file_descr option;
  mutable oc : out_channel option;
  mutable loaded : int;
  mutable stale_dropped : int;
  mutable torn_dropped : int;
  mutable appended : int;
  mutable closed : bool;
}

let magic = "cpsdim-store"

let header salt = Printf.sprintf "%s %d %s\n" magic format_version salt

(* FNV-1a 64-bit, hex-printed: cheap, stable across platforms, and
   plenty to detect torn or bit-flipped records (not an integrity
   guarantee against an adversary — the store is a local cache).  A
   loop over a local ref keeps the accumulator unboxed; a closure
   capturing it would box an Int64 per byte. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code s.[i])))
        0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h

let record key value =
  Printf.sprintf "R %d %d %s\n%s%s\n" (String.length key) (String.length value)
    (fnv64 (key ^ value))
    key value

(* ------------------------------------------------------------------ *)
(* Parsing *)

(* the file contents after the header: returns the records in file
   order plus the count of damaged/torn records dropped (the first
   damaged byte poisons everything after it — an append that landed
   after a torn record cannot be trusted to be framed correctly) *)
let parse_records content =
  let len = String.length content in
  let out = ref [] in
  let pos = ref 0 in
  let torn = ref 0 in
  (try
     while !pos < len do
       let nl =
         match String.index_from_opt content !pos '\n' with
         | Some i -> i
         | None -> raise Exit
       in
       let hdr = String.sub content !pos (nl - !pos) in
       (match String.split_on_char ' ' hdr with
        | [ "R"; klen; vlen; sum ] ->
          let klen = int_of_string klen and vlen = int_of_string vlen in
          if klen < 0 || vlen < 0 then raise Exit;
          let kstart = nl + 1 in
          if kstart + klen + vlen + 1 > len then raise Exit;
          let key = String.sub content kstart klen in
          let value = String.sub content (kstart + klen) vlen in
          if content.[kstart + klen + vlen] <> '\n' then raise Exit;
          if not (String.equal (fnv64 (key ^ value)) sum) then raise Exit;
          out := (key, value) :: !out;
          pos := kstart + klen + vlen + 1
        | _ -> raise Exit)
     done
   with Exit | Failure _ -> torn := 1);
  (List.rev !out, !torn)

let parse_header content =
  match String.index_opt content '\n' with
  | None -> Error "missing header"
  | Some nl -> (
    let line = String.sub content 0 nl in
    match String.split_on_char ' ' line with
    | m :: v :: rest when String.equal m magic -> (
      match int_of_string_opt v with
      | Some v when v = format_version ->
        Ok (String.concat " " rest, String.sub content (nl + 1) (String.length content - nl - 1))
      | Some v -> Error (Printf.sprintf "format version %d (this build reads %d)" v format_version)
      | None -> Error "malformed header")
    | _ -> Error "not a cpsdim verification store")

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Crash-safe rewrite: full contents to a temp file in the same
   directory, then an atomic rename over the target. *)

let rewrite ~path ~salt entries =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (header salt);
      List.iter
        (fun (k, v) -> Out_channel.output_string oc (record k v))
        entries);
  Sys.rename tmp path

(* Advisory single-writer guard.  The disk image is owned by whichever
   process first takes an exclusive [lockf] lease on the sibling
   ".lock" file: only the owner heals torn tails, retires stale salts,
   and appends.  Any later opener — typically a one-shot CLI run racing
   a resident daemon on the same cache — degrades to read-only: it
   loads whatever records are currently clean and keeps its own
   additions in memory, so two processes can never interleave appends
   into one file.  [lockf] conflicts are a {e cross-process} property
   (a second handle inside one process still locks successfully),
   which is exactly the race the append path had: in-process sharing
   is already mutex-protected.  The lock file itself is never deleted
   — unlinking it would let a third opener lock a fresh inode while a
   second still waits on the old one, yielding two writers. *)
type lock = Writer of Unix.file_descr option | Reader

let acquire_lock path =
  match Unix.openfile (path ^ ".lock") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error _ ->
    (* no lock file possible (exotic fs, permissions): keep the
       pre-lock behaviour — write unguarded, surface IO errors as
       before *)
    Writer None
  | fd -> (
    match Unix.lockf fd Unix.F_TLOCK 0 with
    | () -> Writer (Some fd)
    | exception Unix.Unix_error ((EAGAIN | EACCES), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Reader
    | exception Unix.Unix_error _ -> Writer (Some fd))

let open_ ~path ~salt =
  if String.contains salt '\n' then Error "Store.open_: salt contains a newline"
  else begin
    let lock = acquire_lock path in
    let writer = match lock with Writer _ -> true | Reader -> false in
    let fresh () =
      if writer then rewrite ~path ~salt [];
      Ok ([], 0, 0)
    in
    let load () =
      if not (Sys.file_exists path) then fresh ()
      else
        match read_file path with
        | Error m -> Error m
        | Ok "" -> fresh ()
        | Ok content -> (
          match parse_header content with
          | Error m -> Error (Printf.sprintf "%s: %s" path m)
          | Ok (file_salt, body) ->
            let records, torn = parse_records body in
            if not (String.equal file_salt salt) then begin
              (* stale engine: drop everything; only the writer may
                 restart the file empty *)
              if writer then rewrite ~path ~salt [];
              Ok ([], List.length records + torn, 0)
            end
            else begin
              (* heal a torn tail so new appends land cleanly *)
              if torn > 0 && writer then rewrite ~path ~salt records;
              Ok (records, 0, torn)
            end)
    in
    let release () =
      match lock with
      | Writer (Some fd) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | Writer None | Reader -> ()
    in
    match (try load () with Sys_error m -> Error m) with
    | Error m ->
      release ();
      Error m
    | Ok (records, stale_dropped, torn_dropped) ->
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v)
        records;
      Ok
        {
          path;
          salt;
          tbl;
          m = Mutex.create ();
          ro = not writer;
          lock_fd = (match lock with Writer fd -> fd | Reader -> None);
          oc = None;
          loaded = List.length records;
          stale_dropped;
          torn_dropped;
          appended = 0;
          closed = false;
        }
  end

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let path t = t.path
let salt t = t.salt
let read_only t = t.ro

let find t key =
  let t0 = Obs.Clock.now () in
  let r = locked t (fun () -> Hashtbl.find_opt t.tbl key) in
  Obs.Metric.observe_value "store.find_s" (Obs.Clock.now () -. t0);
  r
let mem t key = locked t (fun () -> Hashtbl.mem t.tbl key)
let length t = locked t (fun () -> Hashtbl.length t.tbl)

let out_channel t =
  match t.oc with
  | Some oc -> oc
  | None ->
    let oc = open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 t.path in
    t.oc <- Some oc;
    oc

let add t key value =
  let t0 = Obs.Clock.now () in
  locked t (fun () ->
      if not (t.closed || Hashtbl.mem t.tbl key) then begin
        Hashtbl.add t.tbl key value;
        (* disk failures (full disk, revoked permissions) degrade to an
           in-memory cache rather than aborting a verification run; a
           read-only loser of the writer lock never touches the file *)
        if not t.ro then
          try
            let oc = out_channel t in
            Out_channel.output_string oc (record key value);
            Out_channel.flush oc;
            t.appended <- t.appended + 1
          with Sys_error _ -> ()
      end);
  Obs.Metric.observe_value "store.append_s" (Obs.Clock.now () -. t0)

let stats t =
  locked t (fun () ->
      {
        entries = Hashtbl.length t.tbl;
        loaded = t.loaded;
        stale_dropped = t.stale_dropped;
        torn_dropped = t.torn_dropped;
        appended = t.appended;
      })

let iter t f = locked t (fun () -> Hashtbl.iter f t.tbl)

let close_channel t =
  match t.oc with
  | None -> ()
  | Some oc ->
    t.oc <- None;
    (try Out_channel.close oc with Sys_error _ -> ())

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      close_channel t;
      if not t.ro then
        try rewrite ~path:t.path ~salt:t.salt [] with Sys_error _ -> ())

let flush t =
  locked t (fun () ->
      match t.oc with
      | Some oc -> ( try Out_channel.flush oc with Sys_error _ -> ())
      | None -> ())

let release_lock t =
  match t.lock_fd with
  | None -> ()
  | Some fd ->
    t.lock_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let close t =
  locked t (fun () ->
      t.closed <- true;
      close_channel t;
      release_lock t)

let peek ~path =
  match read_file path with
  | Error m -> Error m
  | Ok "" -> Error (path ^ ": empty file")
  | Ok content -> (
    match parse_header content with
    | Error m -> Error (Printf.sprintf "%s: %s" path m)
    | Ok (salt, body) ->
      let records, _torn = parse_records body in
      Ok (salt, List.length records))
