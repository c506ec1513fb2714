let finite xs = List.filter Float.is_finite xs

let mean_opt = function
  | [] -> None
  | xs -> Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

let mean xs = Option.value ~default:0. (mean_opt xs)

(* Nearest-rank percentile over the finite samples; [q] clamped to
   [0,1]. rank = ceil(q*n), 1-based, clamped into the sorted array. *)
let percentile_opt q xs =
  match finite xs with
  | [] -> None
  | fs ->
    let a = Array.of_list fs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let q = Float.max 0. (Float.min 1. q) in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    Some a.(max 0 (min (n - 1) (rank - 1)))

let percentile q xs = Option.value ~default:0. (percentile_opt q xs)

let reduction_percent before after =
  if Float.is_nan before || Float.is_nan after || before <= 0. then 0.
  else
    let r = 100. *. (before -. after) /. before in
    if Float.is_finite r then r else 0.

let fmt_f1 v = Printf.sprintf "%.1f" v
let fmt_f2 v = Printf.sprintf "%.2f" v
let fmt_time_s v = Printf.sprintf "%.3f" v
