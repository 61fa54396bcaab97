(** Domain-based work pool.

    [map] executes independent pieces of work on worker domains (OCaml 5
    [Domain.spawn]) draining a shared index counter.  The helper domains
    are spawned on first need and kept for the whole process (joined at
    exit), so repeated maps neither pay for spawning nor leave a dead
    domain's heap behind per call.  The
    result array preserves input order, so a parallel map is
    result-identical to a serial one whenever the work items are
    independent — which every [Into_core.Evaluator.task] is by
    construction. *)

val default_jobs : unit -> int
(** One worker per core ([Domain.recommended_domain_count]). *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] is [Array.map f xs] computed by [min jobs (length xs)]
    domains (the calling domain participates).  [jobs <= 0] means
    {!default_jobs}; [jobs = 1] runs serially in the calling domain with no
    domain spawned.  The first exception (in input order) raised by any [f]
    is re-raised, with its backtrace, after every item has finished.
    Nested maps are safe: the caller always drains its own items, so it
    never waits for a helper that is busy elsewhere. *)
