type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_samples : float list;  (* retained reservoir, unspecified order *)
}

type value = Counter of int | Gauge of float | Histogram of histogram

type item = { name : string; value : value }

let max_samples = 1024

(* Internal histogram cell: count/sum/min/max are exact forever; the
   sample reservoir is Algorithm R over a fixed-size array, so a
   misplaced per-element [observe] costs bounded memory (8 KiB) no
   matter how many observations arrive. The PRNG is seeded from the
   histogram name, so a fixed observation sequence keeps a fixed
   reservoir. *)
type hist_state = {
  mutable hs_count : int;
  mutable hs_sum : float;
  mutable hs_min : float;
  mutable hs_max : float;
  hs_res : float array; (* length max_samples; hs_filled slots live *)
  mutable hs_filled : int;
  hs_rng : Prng.t;
}

type cell = C of int | G of float | H of hist_state

let lock = Mutex.create ()
let tbl : (string, cell) Hashtbl.t = Hashtbl.create 64

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let incr ?(by = 1) name =
  with_lock (fun () ->
      let v =
        match Hashtbl.find_opt tbl name with
        | Some (C n) -> C (n + by)
        | _ -> C by
      in
      Hashtbl.replace tbl name v)

let set name x = with_lock (fun () -> Hashtbl.replace tbl name (G x))

let observe name x =
  with_lock (fun () ->
      let h =
        match Hashtbl.find_opt tbl name with
        | Some (H h) -> h
        | _ ->
          let h =
            {
              hs_count = 0;
              hs_sum = 0.;
              hs_min = Float.infinity;
              hs_max = Float.neg_infinity;
              hs_res = Array.make max_samples 0.;
              hs_filled = 0;
              hs_rng = Prng.create (Hashtbl.hash name);
            }
          in
          Hashtbl.replace tbl name (H h);
          h
      in
      h.hs_count <- h.hs_count + 1;
      h.hs_sum <- h.hs_sum +. x;
      h.hs_min <- Float.min h.hs_min x;
      h.hs_max <- Float.max h.hs_max x;
      if h.hs_filled < max_samples then begin
        h.hs_res.(h.hs_filled) <- x;
        h.hs_filled <- h.hs_filled + 1
      end
      else begin
        (* Algorithm R: the n-th observation replaces a random slot
           with probability max_samples/n, keeping every observation
           equally likely to be retained. *)
        let j = Prng.int h.hs_rng h.hs_count in
        if j < max_samples then h.hs_res.(j) <- x
      end)

let freeze_hist h =
  {
    h_count = h.hs_count;
    h_sum = h.hs_sum;
    h_min = (if h.hs_count = 0 then 0. else h.hs_min);
    h_max = (if h.hs_count = 0 then 0. else h.hs_max);
    h_samples = Array.to_list (Array.sub h.hs_res 0 h.hs_filled);
  }

let value_of_cell = function
  | C n -> Counter n
  | G x -> Gauge x
  | H h -> Histogram (freeze_hist h)

let get name =
  with_lock (fun () -> Option.map value_of_cell (Hashtbl.find_opt tbl name))

let get_counter name =
  match get name with Some (Counter n) -> n | Some _ | None -> 0

let snapshot () =
  let items =
    with_lock (fun () ->
        Hashtbl.fold
          (fun name cell acc -> { name; value = value_of_cell cell } :: acc)
          tbl [])
  in
  List.sort (fun a b -> String.compare a.name b.name) items

let reset () = with_lock (fun () -> Hashtbl.reset tbl)

let counters () =
  List.filter_map
    (fun i ->
      match i.value with
      | Counter n -> Some (i.name, n)
      | Gauge _ | Histogram _ -> None)
    (snapshot ())

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.9g" x else "0"

(* Guarded against an empty reservoir (a histogram restored from a
   snapshot, or constructed by hand in tests): Stat.percentile already
   maps [] to 0., and the finite filter inside it drops NaN samples,
   so no export path can emit nan/inf or raise here. *)
let percentile h q = match h.h_samples with [] -> 0. | s -> Stat.percentile q s

let json_of_value = function
  | Counter n -> string_of_int n
  | Gauge x -> json_float x
  | Histogram h ->
    Printf.sprintf
      {|{"count":%d,"sum":%s,"min":%s,"max":%s,"mean":%s,"p50":%s,"p90":%s,"p99":%s}|}
      h.h_count (json_float h.h_sum) (json_float h.h_min) (json_float h.h_max)
      (json_float (if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count))
      (json_float (percentile h 0.50))
      (json_float (percentile h 0.90))
      (json_float (percentile h 0.99))

let json_of_items items =
  let field { name; value } =
    Printf.sprintf {|"%s":%s|} (json_escape name) (json_of_value value)
  in
  "{" ^ String.concat "," (List.map field items) ^ "}"

let to_json () = json_of_items (snapshot ())

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (v0.0.4)                                 *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]* — our dotted names map dots
   (and anything else illegal) to underscores, and a leading digit gets
   a '_' prefix. *)
let prometheus_name name =
  let b = Buffer.create (String.length name + 1) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' ->
        if i = 0 then Buffer.add_char b '_';
        Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  if Buffer.length b = 0 then "_" else Buffer.contents b

(* Prometheus floats: plain decimal or exponent notation; non-finite
   values are representable (+Inf/-Inf/NaN) but we never emit them —
   the registry's exports are NaN-free by contract. *)
let prometheus_float x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

(* Cumulative histogram buckets derived from the retained reservoir.

   The reservoir is a uniform sample of the observation stream, so the
   cumulative count at bound [le] is estimated as
   [count_in_reservoir(<= le) * h_count / filled] (floored — monotone
   because the reservoir's cumulative counts are monotone and the
   scale factor is a positive constant), while [_count] and [_sum]
   stay exact. Below [max_samples] observations the reservoir is the
   whole stream and the buckets are exact too. Bounds: 8 log-spaced
   cut points between the reservoir's min and max (linear when the
   data spans zero or negatives), a pure function of the sample set so
   repeated scrapes of an idle registry are byte-identical. *)
let prometheus_buckets h =
  let samples = List.filter Float.is_finite h.h_samples in
  match samples with
  | [] -> []
  | _ ->
    let filled = List.length samples in
    let lo = List.fold_left Float.min Float.infinity samples
    and hi = List.fold_left Float.max Float.neg_infinity samples in
    let n_bounds = 8 in
    let bounds =
      if lo >= hi then [ hi ]
      else if lo > 0. then
        (* log-spaced: right for latency-style data spanning decades *)
        List.init n_bounds (fun i ->
            lo
            *. Float.exp
                 (Float.log (hi /. lo)
                 *. float_of_int (i + 1)
                 /. float_of_int n_bounds))
      else
        List.init n_bounds (fun i ->
            lo +. ((hi -. lo) *. float_of_int (i + 1) /. float_of_int n_bounds))
    in
    let scale = float_of_int h.h_count /. float_of_int filled in
    List.map
      (fun le ->
        let in_res =
          List.length (List.filter (fun s -> s <= le) samples)
        in
        le, int_of_float (Float.of_int in_res *. scale))
      bounds

let prometheus_of_items items =
  let b = Buffer.create 2048 in
  List.iter
    (fun { name; value } ->
      let pname = prometheus_name name in
      (match value with
      | Counter n ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" pname);
        Buffer.add_string b (Printf.sprintf "%s %d\n" pname n)
      | Gauge x ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" pname);
        Buffer.add_string b
          (Printf.sprintf "%s %s\n" pname (prometheus_float x))
      | Histogram h ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" pname);
        (* Bounds closer than %.9g can show print alike; one line per
           printed bound, with the count of the last bound printed so. *)
        let rec distinct = function
          | (l, _) :: ((l', _) :: _ as rest) when l = l' -> distinct rest
          | x :: rest -> x :: distinct rest
          | [] -> []
        in
        List.iter
          (fun (le, cum) ->
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname le cum))
          (distinct
             (List.map
                (fun (le, cum) -> prometheus_float le, cum)
                (prometheus_buckets h)));
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname h.h_count);
        Buffer.add_string b
          (Printf.sprintf "%s_sum %s\n" pname (prometheus_float h.h_sum));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname h.h_count)))
    items;
  Buffer.contents b

let to_prometheus () = prometheus_of_items (snapshot ())
