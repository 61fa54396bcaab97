let find_or_add memo key compute =
  match List.assoc_opt key !memo with
  | Some v -> v
  | None ->
    let v = compute () in
    memo := (key, v) :: !memo;
    v
