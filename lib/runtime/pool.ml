let default_jobs () = Domain.recommended_domain_count ()

(* Helper domains live for the whole process and take closures from one
   shared queue.  Spawning fresh domains per [map] would grow the heap with
   every call: OCaml 5 heap pools belong to a domain, and a new domain
   never reuses the holes an exited one left behind. *)
type workers = {
  lock : Mutex.t;
  wake : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable domains : unit Domain.t list;
  mutable size : int;
  mutable closing : bool;
}

let workers =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    queue = Queue.create ();
    domains = [];
    size = 0;
    closing = false;
  }

let rec worker_loop () =
  Mutex.lock workers.lock;
  while Queue.is_empty workers.queue && not workers.closing do
    Condition.wait workers.wake workers.lock
  done;
  match Queue.take_opt workers.queue with
  | None -> Mutex.unlock workers.lock
  | Some task ->
    Mutex.unlock workers.lock;
    task ();
    worker_loop ()

let shutdown () =
  Mutex.lock workers.lock;
  workers.closing <- true;
  Condition.broadcast workers.wake;
  let domains = workers.domains in
  workers.domains <- [];
  Mutex.unlock workers.lock;
  List.iter Domain.join domains

(* Queue [helpers] copies of [task], growing the set of helper domains to
   at least [helpers]. *)
let submit ~helpers task =
  Mutex.lock workers.lock;
  if workers.size = 0 then at_exit shutdown;
  while workers.size < helpers do
    workers.domains <- Domain.spawn worker_loop :: workers.domains;
    workers.size <- workers.size + 1
  done;
  for _ = 1 to helpers do
    Queue.add task workers.queue
  done;
  Condition.broadcast workers.wake;
  Mutex.unlock workers.lock

let map ~jobs f xs =
  let n = Array.length xs in
  let jobs = if jobs <= 0 then default_jobs () else jobs in
  let helpers = min jobs n - 1 in
  if helpers <= 0 then Array.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let finished = Atomic.make 0 in
    let lock = Mutex.create () and all_done = Condition.create () in
    (* Each slot is written by exactly one domain before it bumps
       [finished]; the caller reads the slots only after seeing [finished]
       reach [n], which publishes the writes.  A helper that starts after
       the items ran out finds [next >= n] and returns at once. *)
    let drain () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            match f xs.(i) with
            | v -> Ok v
            | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          if Atomic.fetch_and_add finished 1 = n - 1 then begin
            Mutex.lock lock;
            Condition.broadcast all_done;
            Mutex.unlock lock
          end;
          loop ()
        end
      in
      loop ()
    in
    submit ~helpers drain;
    (* The caller drains too, so a [map] nested inside [f] completes even
       when every helper is busy with the outer one. *)
    drain ();
    Mutex.lock lock;
    while Atomic.get finished < n do
      Condition.wait all_done lock
    done;
    Mutex.unlock lock;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
        | None -> assert false)
      results
  end
