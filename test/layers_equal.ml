(* Layer equality: a context built through a context cache's layer
   store against a fresh [Context.create] of the same mode. The two must
   agree in every pin value, pin activity and clock mask, in every arc's
   enablement, and in the clock order the masks index. *)

module Mode = Mm_sdc.Mode
module Logic = Mm_netlist.Logic
module Context = Mm_timing.Context
module Const_prop = Mm_timing.Const_prop
module Clock_prop = Mm_timing.Clock_prop
module Tgraph = Mm_timing.Tgraph

let rec first i n f =
  if i >= n then None
  else match f i with Some _ as r -> r | None -> first (i + 1) n f

(* [Some message] naming the first difference. *)
let mismatch (stored : Context.t) (fresh : Context.t) =
  let g = fresh.Context.graph in
  let cs = stored.Context.consts and cf = fresh.Context.consts in
  let ks = stored.Context.clocks and kf = fresh.Context.clocks in
  let differ what i show a b =
    if a = b then None
    else Some (Printf.sprintf "%s %d: stored %s, fresh %s" what i (show a) (show b))
  in
  let nclk = Clock_prop.n_clocks kf in
  if Clock_prop.n_clocks ks <> nclk then
    Some
      (Printf.sprintf "clock count: stored %d, fresh %d" (Clock_prop.n_clocks ks)
         nclk)
  else
    match
      first 0 nclk (fun i ->
          differ "clock" i Fun.id (Clock_prop.clock_name ks i)
            (Clock_prop.clock_name kf i))
    with
    | Some _ as m -> m
    | None -> (
      match
        first 0 (Tgraph.n_pins g) (fun p ->
            match
              differ "value at pin" p Logic.tri_to_string (Const_prop.value cs p)
                (Const_prop.value cf p)
            with
            | Some _ as m -> m
            | None -> (
              match
                differ "pin_active at pin" p string_of_bool
                  (Const_prop.pin_active cs p) (Const_prop.pin_active cf p)
              with
              | Some _ as m -> m
              | None ->
                differ "clock mask at pin" p string_of_int
                  (Clock_prop.mask_at ks p) (Clock_prop.mask_at kf p)))
      with
      | Some _ as m -> m
      | None ->
        first 0 (Tgraph.n_arcs g) (fun a ->
            differ "enablement of arc" a string_of_bool (Const_prop.enabled cs a)
              (Const_prop.enabled cf a)))

(* [Some message] for the first mode whose stored context differs from
   a fresh one; [stored] builds a mode's context through the store. *)
let first_mismatch ~stored modes =
  List.find_map
    (fun (m : Mode.t) ->
      Option.map
        (fun why -> m.Mode.mode_name ^ ": " ^ why)
        (mismatch (stored m) (Context.create m.Mode.design m)))
    modes
