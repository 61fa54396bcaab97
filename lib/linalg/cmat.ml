type t = { r : int; c : int; data : Complex.t array }

let create r c = { r; c; data = Array.make (r * c) Complex.zero }
let rows m = m.r
let cols m = m.c
let get m i j = m.data.((i * m.c) + j)
let set m i j z = m.data.((i * m.c) + j) <- z
let copy m = { m with data = Array.copy m.data }
