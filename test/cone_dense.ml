(* Dense cones: the walk into a fresh pin-sized [bool array] and the
   scan of the whole topological order that [Mm_core.Relation_prop]'s
   cones replaced with walks into a caller-owned mark buffer. Kept only
   as the differential oracle: the new cones must hold the same pins in
   the same order. *)

module Tgraph = Mm_timing.Tgraph
module Const_prop = Mm_timing.Const_prop
module Context = Mm_timing.Context

let cone (ctx : Context.t) pins ~forward =
  let g = ctx.Context.graph in
  let mark = Array.make (Tgraph.n_pins g) false in
  let queue = Queue.create () in
  List.iter
    (fun p ->
      if not mark.(p) then begin
        mark.(p) <- true;
        Queue.add p queue
      end)
    pins;
  let visit aid =
    if Const_prop.enabled ctx.Context.consts aid then begin
      let next = if forward then Tgraph.arc_dst g aid else Tgraph.arc_src g aid in
      if not mark.(next) then begin
        mark.(next) <- true;
        Queue.add next queue
      end
    end
  in
  while not (Queue.is_empty queue) do
    let p = Queue.take queue in
    if forward then Tgraph.iter_out g p visit else Tgraph.iter_in g p visit
  done;
  mark

let forward_cone ctx pins = cone ctx pins ~forward:true
let backward_cone ctx pins = cone ctx pins ~forward:false

(* Pass 3's restriction: the startpoint's forward cone AND the
   endpoint's backward cone. *)
let cone_and a b = Array.mapi (fun i x -> x && b.(i)) a

(* The marked pins in topological order. *)
let cone_order (ctx : Context.t) within =
  let acc = ref [] in
  let topo = ctx.Context.graph.Tgraph.topo in
  for i = Array.length topo - 1 downto 0 do
    if within.(topo.(i)) then acc := topo.(i) :: !acc
  done;
  !acc
