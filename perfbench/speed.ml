(* The machine-speed probe.

   On the 2-core reference machine the speed of identical work drifted by
   up to 1.8x within minutes, as other tenants came and went.  This probe
   times a fixed loop of the benchmark's own code, and the run's times are
   rescaled to the speed at which one loop takes [ref_s].

   Its result must not depend on what the program did before.  It runs
   only between units, after a pause, while no worker is busy, and every
   sample rebuilds the same cache state first: it runs the loop once
   untimed, then sweeps [flush], twice the 2 MiB L2 of that machine, which
   pushes the loop's data out of L2 into the shared L3.  The timed loop then
   reads its data from L3, every time.  Its arrays live outside the OCaml
   heap, and nothing in it allocates. *)

let now = Unix.gettimeofday

let ref_s = 3.0e-4

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let n = 48
let sweep_floats = 1 lsl 16
let flush_floats = 1 lsl 19

type data = { a : floats; b : floats; c : floats; sweep : floats; flush : floats }

let floats len f : floats =
  let xs = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  for i = 0 to len - 1 do
    xs.{i} <- f i
  done;
  xs

let data =
  lazy
    {
      a = floats (n * n) (fun i -> float_of_int (i mod 17) /. 17.0);
      b = floats (n * n) (fun i -> float_of_int (i mod 13) /. 13.0);
      c = floats (n * n) (fun _ -> 0.0);
      sweep = floats sweep_floats (fun i -> float_of_int (i land 255));
      flush = floats flush_floats (fun _ -> 1.0);
    }

(* Resident bytes of the probe's arrays, which [prepare] allocates before a
   pass's first unit; [peak_rss_mb] leaves them out. *)
let bytes = 8 * ((3 * n * n) + sweep_floats + flush_floats)

let prepare () = ignore (Lazy.force data)

let strided_sum (xs : floats) =
  let s = ref 0.0 and i = ref 0 in
  while !i < Bigarray.Array1.dim xs do
    s := !s +. xs.{!i};
    i := !i + 8
  done;
  !s

let loop d =
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (d.a.{(i * n) + k} *. d.b.{(k * n) + j})
      done;
      d.c.{(i * n) + j} <- !s
    done
  done;
  d.c.{0} <- d.c.{0} +. strided_sum d.sweep

let sample d =
  loop d;
  d.c.{1} <- strided_sum d.flush;
  let t = now () in
  loop d;
  now () -. t

type t = { mutable timed : float; mutable samples : int }

let create () = { timed = 0.0; samples = 0 }

let pause_s = 0.02
let reps = 20

let probe p =
  Unix.sleepf pause_s;
  let d = Lazy.force data in
  for _ = 1 to reps do
    p.timed <- p.timed +. sample d;
    p.samples <- p.samples + 1
  done

(* Rescales a duration measured during the run to the reference speed. *)
let factor p = if p.samples = 0 then 1.0 else ref_s /. (p.timed /. float_of_int p.samples)
