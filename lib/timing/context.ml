module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode

type t = {
  design : Design.t;
  mode : Mode.t;
  graph : Tgraph.t;
  consts : Const_prop.t;
  clocks : Clock_prop.t;
  excs : Excmatch.t;
  exclusive : int array;
}

let build_exclusive (clocks : Clock_prop.t) (mode : Mode.t) =
  let n = Clock_prop.n_clocks clocks in
  let exclusive = Array.make n 0 in
  List.iter
    (fun (g : Mode.clock_group) ->
      let masks =
        List.map (Clock_prop.mask_of_clock_names clocks) g.grp_clocks
      in
      List.iteri
        (fun i mi ->
          List.iteri
            (fun j mj ->
              if i <> j then
                for c = 0 to n - 1 do
                  if mi land (1 lsl c) <> 0 then
                    exclusive.(c) <- exclusive.(c) lor mj
                done)
            masks)
        masks)
    mode.Mode.groups;
  exclusive

let of_layers design mode consts clocks =
  Mm_util.Metrics.incr "timing.context_builds";
  let graph = Tgraph.skeleton design in
  let excs = Excmatch.prepare graph clocks mode in
  { design; mode; graph; consts; clocks; excs; exclusive = build_exclusive clocks mode }

let create design mode =
  let graph = Tgraph.skeleton design in
  let consts = Const_prop.run graph mode in
  of_layers design mode consts (Clock_prop.run graph consts mode)

(* Swap the mode without recomputing constants/clocks: only the
   exception automaton and clock-group exclusivity depend on the parts
   of a mode that refinement changes (exceptions, groups, senses used
   as lineage carriers). The caller guarantees the new mode matches
   [t.mode] in everything the reused layers were computed from: cases,
   disables and clock definitions. *)
let with_exceptions t mode =
  let excs = Excmatch.prepare t.graph t.clocks mode in
  { t with mode; excs; exclusive = build_exclusive t.clocks mode }

let clocks_exclusive t a b = t.exclusive.(a) land (1 lsl b) <> 0

let find_clock t i =
  let name = Clock_prop.clock_name t.clocks i in
  match Mode.find_clock t.mode name with
  | Some c -> c
  | None -> assert false

let capture_clocks_of_endpoint t = function
  | Tgraph.Ep_reg { ep_clock; _ } ->
    Clock_prop.fold_indices (Clock_prop.mask_at t.clocks ep_clock) List.cons []
  | Tgraph.Ep_port { ep_pin } ->
    List.filter_map
      (fun (d : Mode.io_delay) ->
        if (not d.iod_input) && d.iod_pin = ep_pin then
          Option.bind d.iod_clock (Clock_prop.clock_index t.clocks)
        else None)
      t.mode.Mode.io_delays
    |> List.sort_uniq compare

let fold_relationships t ep =
  (* The pins by which exceptions may address the endpoint. *)
  let end_pins =
    match ep with
    | Tgraph.Ep_reg { ep_data; _ } -> [ ep_data ]
    | Tgraph.Ep_port { ep_pin } -> [ ep_pin ]
  in
  let captures = capture_clocks_of_endpoint t ep in
  fun ci st edge f init ->
    if ci < 0 then init
    else
      List.fold_left
        (fun acc cj ->
          if clocks_exclusive t ci cj then acc
          else
            f cj
              (Excmatch.matches_at t.excs st ~end_pins ~capture_clock:(Some cj)
                 ~data_edge:edge ())
              acc)
        init captures
