let magic = "INTO-OA-CKPT"
let version = 3

type frame = {
  frame_magic : string;
  frame_version : int;
  frame_key : string;
  frame_payload : string;
}

type t = {
  path : string;
  mutable oc : out_channel option;
  table : (string, string) Hashtbl.t;
  mutable order : string list;  (** journal order, reversed *)
  n_restored : int;
  lock : Mutex.t;
}

(* On disk a frame is [length (8 bytes, big-endian)] [Digest.string of
   the body (16 bytes)] [body = Marshal of a [frame]].  A torn frame can be
   followed by whole frames appended later, so a body is only unmarshalled
   once its length fits the file and its digest matches: Marshal must never
   see bytes that straddle a fragment and the frames after it. *)
let header_len = 8 + 16

let encode frame =
  let body = Marshal.to_string (frame : frame) [] in
  let b = Buffer.create (header_len + String.length body) in
  Buffer.add_int64_be b (Int64.of_int (String.length body));
  Buffer.add_string b (Digest.string body);
  Buffer.add_string b body;
  Buffer.contents b

(* The next whole frame at the channel position, or [None] at the first
   short read, implausible length, digest mismatch or foreign frame. *)
let read_frame ic ~file_len =
  match really_input_string ic header_len with
  | exception End_of_file -> None
  | header -> (
    let len = Int64.to_int (String.get_int64_be header 0) in
    if len <= 0 || len > file_len - pos_in ic then None
    else
      match really_input_string ic len with
      | exception End_of_file -> None
      | body when not (String.equal (Digest.string body) (String.sub header 8 16)) -> None
      | body -> (
        match (Marshal.from_string body 0 : frame) with
        | f when String.equal f.frame_magic magic && f.frame_version = version -> Some f
        | _ -> None
        | exception _ -> None))

(* Read frames until the first bad one, reporting how many bytes of the
   file were valid so the caller can truncate the corrupt tail. *)
let load_valid_prefix path =
  match open_in_bin path with
  | exception Sys_error _ -> ([], 0)
  | ic ->
    let file_len = in_channel_length ic in
    let rec loop acc valid_end =
      match read_frame ic ~file_len with
      | Some f -> loop ((f.frame_key, f.frame_payload) :: acc) (pos_in ic)
      | None -> (List.rev acc, valid_end)
    in
    let frames, valid_end = loop [] 0 in
    close_in_noerr ic;
    (frames, valid_end)

let start ~path ~fresh =
  Fsutil.mkdir_p (Filename.dirname path);
  let restored =
    if fresh then []
    else begin
      let frames, valid_end = load_valid_prefix path in
      if Sys.file_exists path then begin
        match Unix.truncate path valid_end with
        | () -> ()
        | exception Unix.Unix_error (_, _, _) -> ()
      end;
      frames
    end
  in
  let oc =
    let flags =
      if fresh then [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
      else [ Open_wronly; Open_creat; Open_append; Open_binary ]
    in
    match open_out_gen flags 0o644 path with
    | oc -> Some oc
    | exception Sys_error _ -> None
  in
  let table = Hashtbl.create 64 in
  (* Last write wins: a key journalled twice (e.g. re-appended after a torn
     tail was repaired) converges on the most recent payload. *)
  let order = ref [] in
  List.iter
    (fun (key, payload) ->
      if not (Hashtbl.mem table key) then order := key :: !order;
      Hashtbl.replace table key payload)
    restored;
  {
    path;
    oc;
    table;
    order = !order;
    n_restored = List.length restored;
    lock = Mutex.create ();
  }

let restored t = t.n_restored
let find t ~key = Hashtbl.find_opt t.table key

let append t ~key ~payload =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if not (Hashtbl.mem t.table key) then t.order <- key :: t.order;
      Hashtbl.replace t.table key payload;
      match t.oc with
      | None -> ()
      | Some oc -> (
        let frame =
          {
            frame_magic = magic;
            frame_version = version;
            frame_key = key;
            frame_payload = payload;
          }
        in
        match
          output_string oc (encode frame);
          flush oc
        with
        | () -> ()
        | exception Sys_error _ -> t.oc <- None))

let entries t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      List.rev_map
        (fun key -> (key, Hashtbl.find t.table key))
        t.order)

(* Simulate a crash mid-append: chop [bytes] off the end of the journal
   file.  The in-memory table is untouched (this process already has the
   results); only a later [start] sees the damage, truncates back to the
   last whole frame, and recomputes the lost tail.  The channel is
   reopened in append mode so frames written after the tear land at the
   new end of file rather than over a sparse hole. *)
let tear t ~bytes =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      (match t.oc with
      | Some oc ->
        close_out_noerr oc;
        t.oc <- None
      | None -> ());
      (match
         let size = (Unix.stat t.path).Unix.st_size in
         Unix.truncate t.path (max 0 (size - max 0 bytes))
       with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) | exception Sys_error _ -> ());
      match
        open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 t.path
      with
      | oc -> t.oc <- Some oc
      | exception Sys_error _ -> ())

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        close_out_noerr oc;
        t.oc <- None)
