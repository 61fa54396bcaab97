type event =
  | Run_started of { label : string; index : int; total : int }
  | Run_finished of { label : string; index : int; total : int; elapsed_s : float }
  | Run_restored of { label : string; index : int; total : int }
  | Run_failed of { label : string; index : int; total : int; reason : string }

let render = function
  | Run_started { label; index; total } -> Printf.sprintf "[%d/%d] %s" index total label
  | Run_finished { label; index; total; elapsed_s } ->
    Printf.sprintf "[%d/%d] %s  done in %.1f s" index total label elapsed_s
  | Run_restored { label; index; total } ->
    Printf.sprintf "[%d/%d] %s  restored from checkpoint" index total label
  | Run_failed { label; index; total; reason } ->
    Printf.sprintf "[%d/%d] %s  failed: %s" index total label reason
