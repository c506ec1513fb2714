module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Tgraph = Mm_timing.Tgraph
module Const_prop = Mm_timing.Const_prop
module Clock_prop = Mm_timing.Clock_prop
module Excmatch = Mm_timing.Excmatch
module Context = Mm_timing.Context
module Tag = Mm_timing.Tag
module Constraint_state = Mm_timing.Constraint_state
module Store = Tag.Store

(* ------------------------------------------------------------------ *)
(* Cones.

   A cone is the set of pins a walk over enabled arcs visits, kept as
   its pins in topological order plus a membership test. The walk marks
   pins in a caller-owned buffer by epoch: every walk takes a fresh
   epoch, so it costs the cone, never the design, and needs no clearing
   — not even after a walk abandoned by cancellation. *)

type marks = { stamp : int array; mutable epoch : int }

let create_marks (g : Tgraph.t) =
  { stamp = Array.make (Tgraph.n_pins g) 0; epoch = 0 }

type cone = { c_marks : marks; c_epoch : int; c_pins : Design.pin_id list }

let check_current c =
  if c.c_epoch <> c.c_marks.epoch then invalid_arg "Relation_prop: stale cone"

let in_cone c pin =
  check_current c;
  c.c_marks.stamp.(pin) = c.c_epoch

let cone_pins c = c.c_pins

(* Walk from [pins] along enabled arcs into a fresh epoch of [marks],
   entering only pins [within] holds. [within] is read by raw stamp: it
   may live in [marks] itself, whose old epoch this walk overwrites. *)
let walk marks (ctx : Context.t) ?within pins ~forward =
  Option.iter check_current within;
  let g = ctx.Context.graph in
  let epoch = marks.epoch + 1 in
  marks.epoch <- epoch;
  let stamp = marks.stamp in
  let allowed =
    match within with
    | None -> fun _ -> true
    | Some w -> fun p -> w.c_marks.stamp.(p) = w.c_epoch
  in
  let visited = ref [] and stack = ref [] in
  let enter p =
    if stamp.(p) <> epoch && allowed p then begin
      stamp.(p) <- epoch;
      visited := p :: !visited;
      stack := p :: !stack
    end
  in
  List.iter enter pins;
  let visit aid =
    if Const_prop.enabled ctx.Context.consts aid then
      enter (if forward then Tgraph.arc_dst g aid else Tgraph.arc_src g aid)
  in
  let rec drain () =
    match !stack with
    | [] -> ()
    | p :: rest ->
      stack := rest;
      if forward then Tgraph.iter_out g p visit else Tgraph.iter_in g p visit;
      drain ()
  in
  drain ();
  let order = Array.of_list !visited and pos = g.Tgraph.topo_pos in
  Array.sort (fun a b -> Int.compare pos.(a) pos.(b)) order;
  { c_marks = marks; c_epoch = epoch; c_pins = Array.to_list order }

let forward_cone marks ?within ctx pins = walk marks ctx ?within pins ~forward:true
let backward_cone marks ctx pins = walk marks ctx pins ~forward:false

let positions (g : Tgraph.t) pin_of items =
  let pos = Array.make (Tgraph.n_pins g) (-1) in
  Array.iteri (fun i x -> pos.(pin_of x) <- i) items;
  pos

(* Relation tags are store entries whose values go unread. *)
let sweep_pin (ctx : Context.t) ts inside pin =
  let g = ctx.Context.graph in
  if Store.has_tags ts pin then
    (* The out arcs by index: no closure per pin. *)
    for k = g.Tgraph.out_row.(pin) to g.Tgraph.out_row.(pin + 1) - 1 do
      let aid = g.Tgraph.out_adj.(k) in
      if Tag.carries ctx aid then begin
        let dst = Tgraph.arc_dst g aid in
        if inside dst then
          Tag.sweep ts ctx.Context.excs (Tgraph.arc_unate g aid) ~src:pin ~dst
            0. 0.
      end
    done

(* Membership in [cone] (every pin without one), checked current once. *)
let inside_of = function
  | None -> fun _ -> true
  | Some c ->
    check_current c;
    fun pin -> c.c_marks.stamp.(pin) = c.c_epoch

(* [seed inside add] adds the seeds at the pins [inside] accepts, by
   [add pin key]; then the sweep. *)
let propagate_with (ctx : Context.t) ?cone ?scratch seed =
  let ts =
    match scratch with
    | Some ts ->
      Store.clear ts;
      ts
    | None -> Store.create (Tgraph.n_pins ctx.Context.graph)
  and inside = inside_of cone in
  seed inside (fun pin k -> Store.add ts pin k 0. 0.);
  (match cone with
  | Some c -> List.iter (sweep_pin ctx ts inside) c.c_pins
  | None -> Array.iter (sweep_pin ctx ts inside) ctx.Context.graph.Tgraph.topo);
  ts

let propagate (ctx : Context.t) ~seeds ?cone ?scratch () =
  propagate_with ctx ?cone ?scratch (fun inside add ->
      List.iter
        (fun (l : Tag.launch) ->
          if inside l.launch_pin then Tag.seed ctx l (add l.launch_pin))
        seeds)

let propagate_from ctx from pin ?cone ?scratch () =
  propagate_with ctx ?cone ?scratch (fun inside add ->
      if inside pin then Store.iter_keys from pin (add pin))

let fold_relations (ctx : Context.t) ts ep f init =
  let relationships = Context.fold_relationships ctx ep in
  let acc = ref init in
  Store.iter_keys ts (Tgraph.endpoint_pin ep) (fun k ->
      let ci = Tag.clock k and edge = Tag.edge k in
      acc :=
        relationships ci (Tag.state k) edge
          (fun cj excs acc ->
            f ci cj edge
              (Constraint_state.of_exceptions ~setup:true excs)
              (Constraint_state.of_exceptions ~setup:false excs)
              acc)
          !acc);
  !acc

let relations_at (ctx : Context.t) tags ep =
  let name = Clock_prop.clock_name ctx.Context.clocks in
  fold_relations ctx tags ep
    (fun ci cj data_edge setup hold rels ->
      Relation.make ~data_edge ~launch:(name ci) ~capture:(name cj) ~setup
        ~hold ()
      :: rels)
    []
  |> Relation.normalize

let endpoint_map (ctx : Context.t) ?scratch value =
  let tags = propagate ctx ~seeds:(Tag.all_launches ctx) ?scratch () in
  Array.of_list (List.map (value tags) ctx.Context.graph.Tgraph.sk_endpoints)

let endpoint_relations ?scratch (ctx : Context.t) =
  Array.to_list
    (endpoint_map ctx ?scratch (fun tags ep ->
         Tgraph.endpoint_pin ep, relations_at ctx tags ep))

let data_clock_masks (ctx : Context.t) =
  let g = ctx.Context.graph in
  let n = Tgraph.n_pins g in
  let masks = Array.make n 0 in
  List.iter
    (fun (l : Tag.launch) ->
      masks.(l.launch_pin) <- masks.(l.launch_pin) lor (1 lsl l.launch_clock))
    (Tag.all_launches ctx);
  Array.iter
    (fun pin ->
      if masks.(pin) <> 0 then
        Tgraph.iter_out g pin (fun aid ->
            if Tag.carries ctx aid then begin
              let dst = Tgraph.arc_dst g aid in
              masks.(dst) <- masks.(dst) lor masks.(pin)
            end))
    g.Tgraph.topo;
  masks

(* ------------------------------------------------------------------ *)
(* Incremental endpoint relations.

   The refinement loop re-runs pass 1 after every batch of appended
   exceptions; everything else in the context (graph, constants,
   clocks, environment) is unchanged. An appended exception can only
   change the relations of endpoints its from/through/to scope can
   reach, so: diff the exception list against the cached one, mark the
   endpoints in the new exceptions' scopes dirty (conservatively, via
   enabled-arc cones), re-propagate restricted to the dirty endpoints'
   backward cone, and splice the recomputed relation lists into the
   cached ones positionally. Cached [Relation.t] lists carry no
   exception-state ids, so they stay valid across the re-prepared
   exception automaton. *)

(* The graph's endpoints, each pin's position among them, and the mark
   buffer the scope and re-propagation cones are walked into. *)
type ep_walk = {
  w_graph : Tgraph.t;
  w_eps : Tgraph.endpoint array;
  w_ep_pos : int array;
  w_marks : marks;
}

type 'a ep_cache = {
  mutable ec_excs : Mode.exc list option;  (* None = cold *)
  mutable ec_edge_sensitive : bool;
  mutable ec_vals : 'a array;  (* graph endpoint order *)
  mutable ec_walk : ep_walk option;
}

let create_ep_cache () =
  { ec_excs = None; ec_edge_sensitive = false; ec_vals = [||]; ec_walk = None }

let ep_walk cache (ctx : Context.t) =
  let g = ctx.Context.graph in
  match cache.ec_walk with
  | Some w when w.w_graph == g -> w
  | Some _ | None ->
    let eps = Array.of_list g.Tgraph.sk_endpoints in
    let w =
      {
        w_graph = g;
        w_eps = eps;
        w_ep_pos = positions g Tgraph.endpoint_pin eps;
        w_marks = create_marks g;
      }
    in
    cache.ec_walk <- Some w;
    w

(* [strip_prefix cached now] = the suffix of [now] after [cached], or
   None when [cached] is not a prefix — refinement only appends, so a
   non-prefix means the cache is for some other mode lineage. *)
let rec strip_prefix prefix l =
  match prefix, l with
  | [], rest -> Some rest
  | p :: ps, x :: xs when p == x || Mode.exc_equal p x -> strip_prefix ps xs
  | _ :: _, _ -> None

(* Endpoints an appended exception can change. Exception matching
   tests -to pins only at the endpoint's own pin, so a -to of pins and
   instances alone changes exactly the endpoints at those pins (an
   instance's -to pins are its register data pins) and needs no walk.
   Any other exception changes only endpoints its matched paths reach:
   inside the forward cone of its last -through group (every matching
   path crosses it), else of its -from pins, and matching its -to
   points. Either restriction missing widens to "all"; both missing
   dirties every endpoint. *)
let dirty_endpoints (ctx : Context.t) w delta =
  let eps = w.w_eps in
  let n_eps = Array.length eps in
  let dirty = Array.make n_eps false in
  let design = ctx.Context.design in
  let mark_pin pin =
    let i = w.w_ep_pos.(pin) in
    if i >= 0 then dirty.(i) <- true
  in
  let launches = lazy (Tag.all_launches ctx) in
  let scope_pins pts =
    List.concat_map
      (function
        | Mode.P_pin p -> [ p ]
        | Mode.P_inst inst -> Array.to_list (Design.inst_pins design inst)
        | Mode.P_clock _ -> [])
      pts
  in
  let pins_only =
    List.for_all (function
      | Mode.P_pin _ | Mode.P_inst _ -> true
      | Mode.P_clock _ -> false)
  in
  List.iter
    (fun (e : Mode.exc) ->
      match e.Mode.exc_to with
      | Some pts when pins_only pts -> List.iter mark_pin (scope_pins pts)
      | to_ ->
        let cone =
          match List.rev e.Mode.exc_through, e.Mode.exc_from with
          | last :: _, _ -> Some (forward_cone w.w_marks ctx last)
          | [], None -> None
          | [], Some pts ->
            let clock_pins =
              List.concat_map
                (function
                  | Mode.P_clock c -> (
                    match Clock_prop.clock_index ctx.Context.clocks c with
                    | None -> []
                    | Some ci ->
                      List.filter_map
                        (fun (l : Tag.launch) ->
                          if l.launch_clock = ci then Some l.launch_pin else None)
                        (Lazy.force launches))
                  | Mode.P_pin _ | Mode.P_inst _ -> [])
                pts
            in
            Some (forward_cone w.w_marks ctx (scope_pins pts @ clock_pins))
        in
        let to_pred =
          Option.map
            (fun pts ep ->
              let ep_pin = Tgraph.endpoint_pin ep in
              let captures =
                lazy (Context.capture_clocks_of_endpoint ctx ep)
              in
              List.exists
                (function
                  | Mode.P_pin p -> p = ep_pin
                  | Mode.P_inst inst -> (
                    match Design.pin_owner design ep_pin with
                    | Design.Inst_pin (i, _) -> i = inst
                    | Design.Port_pin _ -> false)
                  | Mode.P_clock c -> (
                    match Clock_prop.clock_index ctx.Context.clocks c with
                    | None -> false
                    | Some cj -> List.mem cj (Lazy.force captures)))
                pts)
            to_
        in
        let consider i =
          if not dirty.(i) then
            match to_pred with
            | None -> dirty.(i) <- true
            | Some f -> if f eps.(i) then dirty.(i) <- true
        in
        (match cone, to_pred with
        | None, None -> Array.fill dirty 0 n_eps true
        | None, Some _ -> Array.iteri (fun i _ -> consider i) eps
        | Some c, _ ->
          List.iter
            (fun pin ->
              let i = w.w_ep_pos.(pin) in
              if i >= 0 then consider i)
            (cone_pins c)))
    delta;
  dirty

let endpoint_relations_cached cache ~scratch (ctx : Context.t) value =
  let excs_now = ctx.Context.mode.Mode.exceptions in
  let es_now = Excmatch.edge_sensitive ctx.Context.excs in
  let store vals recomputed =
    cache.ec_excs <- Some excs_now;
    cache.ec_edge_sensitive <- es_now;
    cache.ec_vals <- vals;
    vals, recomputed
  in
  let full () = store (endpoint_map ctx ~scratch value) None in
  match cache.ec_excs with
  | None -> full ()
  | Some _ when es_now <> cache.ec_edge_sensitive ->
    (* A new exception flipped the mode edge-sensitive: every tag and
       relation changes representation. *)
    full ()
  | Some cached_excs -> (
    match strip_prefix cached_excs excs_now with
    | None -> full ()
    | Some [] -> cache.ec_vals, Some []
    | Some delta ->
      let w = ep_walk cache ctx in
      let eps = w.w_eps in
      if Array.length eps <> Array.length cache.ec_vals then full ()
      else
        Mm_util.Obs.with_span "sta.incremental_reuse"
          ~attrs:[ "what", "endpoint-relations" ]
          ~result_attrs:(fun (_, recomputed) ->
            [
              ( "dirty",
                string_of_int
                  (List.length (Option.value ~default:[] recomputed)) );
            ])
        @@ fun () ->
        let dirty = dirty_endpoints ctx w delta in
        let positions = ref [] in
        for i = Array.length eps - 1 downto 0 do
          if dirty.(i) then positions := i :: !positions
        done;
        if !positions = [] then store cache.ec_vals (Some [])
        else begin
          let cone =
            backward_cone w.w_marks ctx
              (List.map (fun i -> Tgraph.endpoint_pin eps.(i)) !positions)
          in
          let tags =
            propagate ctx ~seeds:(Tag.all_launches ctx) ~cone ~scratch ()
          in
          let vals = Array.copy cache.ec_vals in
          List.iter (fun i -> vals.(i) <- value tags eps.(i)) !positions;
          store vals (Some !positions)
        end)
