module Cs = Mm_timing.Constraint_state

type t = {
  launch : string;
  capture : string;
  data_edge : Mm_sdc.Mode.edge_sel;
  setup_state : Cs.t;
  hold_state : Cs.t;
}

let make ?(data_edge = Mm_sdc.Mode.Any_edge) ~launch ~capture ~setup ~hold () =
  { launch; capture; data_edge; setup_state = setup; hold_state = hold }

let compare a b =
  let c = String.compare a.launch b.launch in
  if c <> 0 then c
  else
    let c = String.compare a.capture b.capture in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.data_edge b.data_edge in
      if c <> 0 then c
      else
        let c = Cs.compare a.setup_state b.setup_state in
        if c <> 0 then c else Cs.compare a.hold_state b.hold_state

let equal a b = compare a b = 0

let normalize l = List.sort_uniq compare l

let states_of l =
  List.sort_uniq Cs.compare (List.map (fun r -> r.setup_state) l)

let rename f r = { r with launch = f r.launch; capture = f r.capture }

let set_to_string l =
  (* Strongest state first, matching the paper's "FP, V" ordering. *)
  let by_rank a b = Int.compare (Cs.rank b) (Cs.rank a) in
  String.concat ", " (List.map Cs.to_string (List.sort by_rank (states_of l)))
