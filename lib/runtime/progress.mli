(** Structured progress events for long-running campaigns.

    Replaces the old [string -> unit] progress callback: consumers that
    want machine-readable progress (counting restored runs in a test,
    driving a UI) match on the event; consumers that only want a line of
    text go through {!render}. *)

type event =
  | Run_started of { label : string; index : int; total : int }
      (** [index] is 1-based within the campaign grid of [total] runs. *)
  | Run_finished of { label : string; index : int; total : int; elapsed_s : float }
  | Run_restored of { label : string; index : int; total : int }
      (** The run was replayed from the checkpoint journal, not executed. *)
  | Run_failed of { label : string; index : int; total : int; reason : string }
      (** The run raised instead of completing; the campaign carries on
          with an empty trace for this cell rather than aborting the whole
          grid.  [reason] is the rendered exception. *)

val render : event -> string
(** One human-readable line, e.g. ["[3/45] S-1 / INTO-OA / run 2"]. *)
