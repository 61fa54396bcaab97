type t =
  | Singular
  | Non_finite of string
  | Timeout
  | Worker_crash
  | Cache_corrupt
  | Other of string

let class_name = function
  | Singular -> "singular"
  | Non_finite _ -> "non-finite"
  | Timeout -> "timeout"
  | Worker_crash -> "worker-crash"
  | Cache_corrupt -> "cache-corrupt"
  | Other _ -> "other"

let all_class_names =
  [
    "singular";
    "non-finite";
    "timeout";
    "worker-crash";
    "cache-corrupt";
    "other";
  ]

let class_index = function
  | Singular -> 0
  | Non_finite _ -> 1
  | Timeout -> 2
  | Worker_crash -> 3
  | Cache_corrupt -> 4
  | Other _ -> 5

let to_string = function
  | Non_finite what -> Printf.sprintf "non-finite (%s)" what
  | Other reason -> "other: " ^ reason
  | f -> class_name f

let environmental = function
  | Timeout | Worker_crash | Cache_corrupt -> true
  | Singular | Non_finite _ | Other _ -> false
