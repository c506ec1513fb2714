module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode

type t = {
  order : string array;
  index : (string, int) Hashtbl.t;
  masks : int array;
}

exception Too_many_clocks of int

let run (g : Tgraph.t) (cp : Const_prop.t) (mode : Mode.t) =
  let clocks = mode.Mode.clocks in
  let nclk = List.length clocks in
  if nclk > 62 then raise (Too_many_clocks nclk);
  let order = Array.of_list (List.map (fun c -> c.Mode.clk_name) clocks) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) order;
  let n = Tgraph.n_pins g in
  let masks = Array.make n 0 in
  (* Stop pins per clock: set_clock_sense -stop_propagation. A sense
     without -clock stops every clock at the pin. *)
  let stop = Hashtbl.create 16 in
  List.iter
    (fun (s : Mode.clock_sense) ->
      if s.cs_stop then begin
        let mask =
          match s.cs_clocks with
          | None -> -1
          | Some names ->
            List.fold_left
              (fun acc nm ->
                match Hashtbl.find_opt index nm with
                | Some i -> acc lor (1 lsl i)
                | None -> acc)
              0 names
        in
        List.iter
          (fun pin ->
            let prev = Option.value ~default:0 (Hashtbl.find_opt stop pin) in
            Hashtbl.replace stop pin (prev lor mask))
          s.cs_pins
      end)
    mode.Mode.senses;
  let stopped_mask pin = Option.value ~default:0 (Hashtbl.find_opt stop pin) in
  (* Seed sources. A source pin that carries a constant still defines
     the clock but the clock goes nowhere. *)
  List.iteri
    (fun ci (c : Mode.clock) ->
      List.iter
        (fun src ->
          if Const_prop.pin_active cp src && stopped_mask src land (1 lsl ci) = 0
          then masks.(src) <- masks.(src) lor (1 lsl ci))
        c.Mode.sources)
    clocks;
  (* Topological sweep over enabled Comb/Net arcs. *)
  Array.iter
    (fun pin ->
      if masks.(pin) <> 0 then
        Tgraph.iter_out g pin (fun aid ->
            if
              Tgraph.arc_kind g aid <> Tgraph.Launch
              && Const_prop.enabled cp aid
            then begin
              let dst = Tgraph.arc_dst g aid in
              masks.(dst) <-
                masks.(dst) lor (masks.(pin) land lnot (stopped_mask dst))
            end))
    g.Tgraph.topo;
  { order; index; masks }

let n_clocks t = Array.length t.order
let clock_name t i = t.order.(i)
let clock_index t name = Hashtbl.find_opt t.index name
let mask_at t pin = t.masks.(pin)

let rec fold_bits i m f init =
  if m = 0 then init
  else
    let rest = fold_bits (i + 1) (m lsr 1) f init in
    if m land 1 <> 0 then f i rest else rest

let fold_indices mask f init = fold_bits 0 mask f init

let clocks_at t pin =
  fold_indices t.masks.(pin) (fun i names -> t.order.(i) :: names) []

let has_clock t pin i = t.masks.(pin) land (1 lsl i) <> 0

let mask_of_clock_names t names =
  List.fold_left
    (fun acc nm ->
      match clock_index t nm with Some i -> acc lor (1 lsl i) | None -> acc)
    0 names

let extra_frontier t g ~through ~merged individual =
  let n = Tgraph.n_pins g in
  (* Individual masks mapped into [t]'s clock indices, unioned. *)
  let union = Array.make n 0 in
  List.iter
    (fun (t_i, rename, mask_i) ->
      let tr =
        Array.init (n_clocks t_i) (fun i ->
            match Option.bind (rename (clock_name t_i i)) (clock_index t) with
            | Some j -> 1 lsl j
            | None -> 0)
      in
      let add i u = u lor tr.(i) in
      for pin = 0 to n - 1 do
        let mask = mask_i pin in
        if mask <> 0 then union.(pin) <- fold_indices mask add union.(pin)
      done)
    individual;
  (* Frontier: pins where a clock is extra but is not extra at any
     predecessor across a [through] arc. Pins are visited in descending
     order so consing yields ascending (pin, clock) order. *)
  let extra pin = merged pin land lnot union.(pin) in
  let frontier = ref [] in
  for pin = n - 1 downto 0 do
    let e = extra pin in
    if e <> 0 then begin
      let pred_extra =
        Tgraph.fold_in g pin 0 (fun acc aid ->
            if through aid then acc lor extra (Tgraph.arc_src g aid) else acc)
      in
      frontier :=
        fold_indices (e land lnot pred_extra)
          (fun ci acc -> (t.order.(ci), pin) :: acc)
          !frontier
    end
  done;
  !frontier
