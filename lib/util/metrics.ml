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

(* Guarded against an empty reservoir (a histogram restored from a
   snapshot, or constructed by hand in tests): Stat.percentile already
   maps [] to 0., and the finite filter inside it drops NaN samples,
   so no export path can emit nan/inf or raise here. *)
let percentile h q = match h.h_samples with [] -> 0. | s -> Stat.percentile q s
