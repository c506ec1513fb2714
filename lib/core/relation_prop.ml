module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Tgraph = Mm_timing.Tgraph
module Const_prop = Mm_timing.Const_prop
module Clock_prop = Mm_timing.Clock_prop
module Excmatch = Mm_timing.Excmatch
module Context = Mm_timing.Context
module Tag = Mm_timing.Tag

(* Per-pin tag sets: small insertion lists of encoded
   (clock, state, polarity) keys, plus the list of touched pins so a
   scratch tagset can be reset in O(touched) — pass 2/3 run one
   propagation per startpoint and reuse the buffer. *)
type tagsets = { tags : int list array; mutable touched : int list }

let add_tag (ts : tagsets) pin k =
  match ts.tags.(pin) with
  | [] ->
    ts.tags.(pin) <- [ k ];
    ts.touched <- pin :: ts.touched
  | existing -> if not (List.mem k existing) then ts.tags.(pin) <- k :: existing

let create_scratch (ctx : Context.t) =
  { tags = Array.make (Tgraph.n_pins ctx.Context.graph) []; touched = [] }

let reset_scratch ts =
  List.iter (fun pin -> ts.tags.(pin) <- []) ts.touched;
  ts.touched <- []

(* Topologically ordered pins of a cone, computed once and shared by
   the per-startpoint queries of passes 2 and 3. *)
let cone_order (ctx : Context.t) within =
  let acc = ref [] in
  let topo = ctx.Context.graph.Tgraph.topo in
  for i = Array.length topo - 1 downto 0 do
    if within.(topo.(i)) then acc := topo.(i) :: !acc
  done;
  !acc

let sweep_pin (ctx : Context.t) (ts : tagsets) inside pin =
  let g = ctx.Context.graph in
  if ts.tags.(pin) <> [] then
    Tgraph.iter_out g pin (fun aid ->
        if Const_prop.enabled ctx.Context.consts aid then begin
          let dst = Tgraph.arc_dst g aid in
          if inside dst then begin
            let unate = Tgraph.arc_unate g aid in
            let add = add_tag ts dst in
            List.iter
              (fun k -> Tag.step ctx.Context.excs unate dst k add)
              ts.tags.(pin)
          end
        end)

let sweep (ctx : Context.t) (ts : tagsets) ?within ?order () =
  let inside pin = match within with None -> true | Some w -> w.(pin) in
  match order with
  | Some pins -> List.iter (fun pin -> sweep_pin ctx ts inside pin) pins
  | None ->
    Array.iter
      (fun pin -> sweep_pin ctx ts inside pin)
      ctx.Context.graph.Tgraph.topo

let propagate (ctx : Context.t) ~seeds ?within ?order ?scratch () =
  let ts =
    match scratch with
    | Some ts ->
      reset_scratch ts;
      ts
    | None -> create_scratch ctx
  in
  let inside pin = match within with None -> true | Some w -> w.(pin) in
  List.iter
    (fun (l : Tag.launch) ->
      if inside l.launch_pin then Tag.seed ctx l (add_tag ts l.launch_pin))
    seeds;
  sweep ctx ts ?within ?order ();
  ts

let propagate_raw (ctx : Context.t) ~tag_seeds ?within ?order ?scratch () =
  let ts =
    match scratch with
    | Some ts ->
      reset_scratch ts;
      ts
    | None -> create_scratch ctx
  in
  let inside pin = match within with None -> true | Some w -> w.(pin) in
  List.iter
    (fun (pin, triples) ->
      if inside pin then
        List.iter
          (fun (ci, st, edge) -> add_tag ts pin (Tag.make ~edge ci st))
          triples)
    tag_seeds;
  sweep ctx ts ?within ?order ();
  ts

let tags_at (ts : tagsets) pin =
  List.map (fun k -> Tag.clock k, Tag.state k, Tag.edge k) ts.tags.(pin)
  |> List.sort compare

let relations_at (ctx : Context.t) tags ep =
  let ep_pin = Tgraph.endpoint_pin ep in
  let end_pins = Context.endpoint_alias_pins ctx ep in
  let captures = Context.capture_clocks_of_endpoint ctx ep in
  let rels = ref [] in
  List.iter
    (fun (ci, st, edge) ->
      if ci >= 0 then
        List.iter
          (fun cj ->
            if not (Context.clocks_exclusive ctx ci cj) then begin
              let setup_state =
                Excmatch.state_at ctx.Context.excs ~setup:true st ~end_pins
                  ~capture_clock:(Some cj) ~data_edge:edge ()
              and hold_state =
                Excmatch.state_at ctx.Context.excs ~setup:false st ~end_pins
                  ~capture_clock:(Some cj) ~data_edge:edge ()
              in
              rels :=
                Relation.make ~data_edge:edge
                  ~launch:(Clock_prop.clock_name ctx.Context.clocks ci)
                  ~capture:(Clock_prop.clock_name ctx.Context.clocks cj)
                  ~setup:setup_state ~hold:hold_state ()
                :: !rels
            end)
          captures)
    (tags_at tags ep_pin);
  Relation.normalize !rels

let endpoint_relations (ctx : Context.t) =
  let tags = propagate ctx ~seeds:(Tag.all_launches ctx) () in
  List.map
    (fun ep -> Tgraph.endpoint_pin ep, relations_at ctx tags ep)
    ctx.Context.graph.Tgraph.sk_endpoints

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
            if Const_prop.enabled ctx.Context.consts aid then begin
              let dst = Tgraph.arc_dst g aid in
              masks.(dst) <- masks.(dst) lor masks.(pin)
            end))
    g.Tgraph.topo;
  masks

let cone (ctx : Context.t) pins ~forward =
  let g = ctx.Context.graph in
  let n = Tgraph.n_pins g in
  let mark = Array.make n false in
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
      let next =
        if forward then Tgraph.arc_dst g aid else Tgraph.arc_src g aid
      in
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

type ep_cache = {
  mutable ec_excs : Mode.exc list option;  (* None = cold *)
  mutable ec_edge_sensitive : bool;
  mutable ec_rels : (Design.pin_id * Relation.t list) array;
      (* graph endpoint order *)
}

let create_ep_cache () =
  { ec_excs = None; ec_edge_sensitive = false; ec_rels = [||] }

(* [strip_prefix cached now] = the suffix of [now] after [cached], or
   None when [cached] is not a prefix — refinement only appends, so a
   non-prefix means the cache is for some other mode lineage. *)
let rec strip_prefix prefix l =
  match prefix, l with
  | [], rest -> Some rest
  | p :: ps, x :: xs when p == x || Mode.exc_equal p x -> strip_prefix ps xs
  | _ :: _, _ -> None

(* Endpoints an exception could affect: inside the forward cone of its
   -through (first group) or -from pins, AND matching its -to points.
   Either restriction missing widens to "all"; both missing dirties
   every endpoint. Everything is over-approximate on purpose. *)
let dirty_endpoints (ctx : Context.t) delta =
  let eps = Array.of_list ctx.Context.graph.Tgraph.sk_endpoints in
  let n_eps = Array.length eps in
  let dirty = Array.make n_eps false in
  let launches = lazy (Tag.all_launches ctx) in
  List.iter
    (fun (e : Mode.exc) ->
      let cone =
        match e.Mode.exc_through with
        | grp :: _ -> Some (forward_cone ctx grp)
        | [] -> (
          match e.Mode.exc_from with
          | None -> None
          | Some pts ->
            let pins =
              List.concat_map
                (function
                  | Mode.P_pin p -> [ p ]
                  | Mode.P_inst inst ->
                    Array.to_list (Design.inst_pins ctx.Context.design inst)
                  | Mode.P_clock c -> (
                    match Clock_prop.clock_index ctx.Context.clocks c with
                    | None -> []
                    | Some ci ->
                      List.filter_map
                        (fun (l : Tag.launch) ->
                          if l.launch_clock = ci then Some l.launch_pin else None)
                        (Lazy.force launches)))
                pts
            in
            Some (forward_cone ctx pins))
      in
      let to_pred =
        match e.Mode.exc_to with
        | None -> None
        | Some pts ->
          Some
            (fun ep ->
              let aliases = Context.endpoint_alias_pins ctx ep in
              let captures =
                lazy (Context.capture_clocks_of_endpoint ctx ep)
              in
              List.exists
                (function
                  | Mode.P_pin p -> List.mem p aliases
                  | Mode.P_inst inst ->
                    List.exists
                      (fun p ->
                        match Design.pin_owner ctx.Context.design p with
                        | Design.Inst_pin (i, _) -> i = inst
                        | Design.Port_pin _ -> false)
                      aliases
                  | Mode.P_clock c -> (
                    match Clock_prop.clock_index ctx.Context.clocks c with
                    | None -> false
                    | Some cj -> List.mem cj (Lazy.force captures)))
                pts)
      in
      match cone, to_pred with
      | None, None -> Array.fill dirty 0 n_eps true
      | _ ->
        Array.iteri
          (fun i ep ->
            if not dirty.(i) then begin
              let pin = Tgraph.endpoint_pin ep in
              let in_cone =
                match cone with None -> true | Some c -> c.(pin)
              in
              if in_cone then
                match to_pred with
                | None -> dirty.(i) <- true
                | Some f -> if f ep then dirty.(i) <- true
            end)
          eps)
    delta;
  eps, dirty

let endpoint_relations_cached cache (ctx : Context.t) =
  let excs_now = ctx.Context.mode.Mode.exceptions in
  let es_now = Excmatch.edge_sensitive ctx.Context.excs in
  let store rels =
    cache.ec_excs <- Some excs_now;
    cache.ec_edge_sensitive <- es_now;
    cache.ec_rels <- rels;
    Array.to_list rels
  in
  let full () = store (Array.of_list (endpoint_relations ctx)) in
  match cache.ec_excs with
  | None -> full ()
  | Some _ when es_now <> cache.ec_edge_sensitive ->
    (* A new exception flipped the mode edge-sensitive: every tag and
       relation changes representation. *)
    full ()
  | Some cached_excs -> (
    match strip_prefix cached_excs excs_now with
    | None -> full ()
    | Some [] -> Array.to_list cache.ec_rels
    | Some delta ->
      let eps, dirty = dirty_endpoints ctx delta in
      if Array.length eps <> Array.length cache.ec_rels then full ()
      else
        Mm_util.Obs.with_span "sta.incremental_reuse"
          ~attrs:
            [
              "what", "endpoint-relations";
              ( "dirty",
                string_of_int
                  (Array.fold_left
                     (fun acc d -> if d then acc + 1 else acc)
                     0 dirty) );
            ]
        @@ fun () ->
        if not (Array.exists Fun.id dirty) then store (Array.copy cache.ec_rels)
        else begin
          let dirty_pins = ref [] in
          Array.iteri
            (fun i ep ->
              if dirty.(i) then
                dirty_pins := Tgraph.endpoint_pin ep :: !dirty_pins)
            eps;
          let within = backward_cone ctx !dirty_pins in
          let order = cone_order ctx within in
          let tags =
            propagate ctx ~seeds:(Tag.all_launches ctx) ~within ~order ()
          in
          store
            (Array.mapi
               (fun i ep ->
                 if dirty.(i) then
                   Tgraph.endpoint_pin ep, relations_at ctx tags ep
                 else cache.ec_rels.(i))
               eps)
        end)
