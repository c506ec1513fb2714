module Design = Mm_netlist.Design

type side = { side_name : string; side_ctx : Context.t; side_rename : string -> string }

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Does [side] propagate, at [pin], an individual clock that renames to
   a merged clock live at [pin] in the merged context? *)
let side_covers (merged : Context.t) side pin =
  let mc = merged.Context.clocks and ic = side.side_ctx.Context.clocks in
  let n = Clock_prop.n_clocks ic in
  let rec go li =
    if li >= n then false
    else if
      Clock_prop.has_clock ic pin li
      &&
      let merged_name = side.side_rename (Clock_prop.clock_name ic li) in
      match Clock_prop.clock_index mc merged_name with
      | Some mi -> Clock_prop.has_clock mc pin mi
      | None -> false
    then true
    else go (li + 1)
  in
  go 0

let export ?(individual = []) ?(clock_network_only = false)
    (merged : Context.t) =
  let graph = merged.Context.graph in
  let design = graph.Tgraph.sk_design in
  let b = Buffer.create 4096 in
  Buffer.add_string b "digraph timing {\n";
  Buffer.add_string b "  rankdir=LR;\n";
  Buffer.add_string b
    "  node [shape=box, fontsize=9, fontname=\"monospace\"];\n";
  Buffer.add_string b "  edge [fontsize=8, fontname=\"monospace\"];\n";
  let used = Array.make (Tgraph.n_pins graph) false in
  let clocky pin = Clock_prop.mask_at merged.Context.clocks pin <> 0 in
  let edges = Buffer.create 4096 in
  for aid = 0 to Tgraph.n_arcs graph - 1 do
    let src = Tgraph.arc_src graph aid and dst = Tgraph.arc_dst graph aid in
    let on_clock_net = clocky src in
    if (not clock_network_only) || on_clock_net then begin
      used.(src) <- true;
      used.(dst) <- true;
      let style =
        match Tgraph.arc_kind graph aid with
        | Tgraph.Comb -> "solid"
        | Tgraph.Net -> "dashed"
        | Tgraph.Launch -> "dotted"
      in
      let color, label =
        if not on_clock_net then "gray60", ""
        else begin
          let covering =
            List.filter_map
              (fun side ->
                if side_covers merged side src then Some side.side_name
                else None)
              individual
          in
          match covering, individual with
          | [], _ :: _ ->
            (* Clock propagation present only in the merged mode:
               exactly what data-clock refinement cuts. *)
            "red", "merged-only"
          | [], [] -> "blue", ""
          | ms, _ -> "blue", String.concat "," ms
        end
      in
      Buffer.add_string edges
        (Printf.sprintf "  p%d -> p%d [style=%s, color=%s%s];\n" src dst
           style color
           (if label = "" then ""
            else Printf.sprintf ", label=\"%s\"" (escape label)))
    end
  done;
  Array.iteri
    (fun pin u ->
      if u then begin
        let clocks = Clock_prop.clocks_at merged.Context.clocks pin in
        let label =
          match clocks with
          | [] -> Design.pin_name design pin
          | cs ->
            Printf.sprintf "%s\n{%s}" (Design.pin_name design pin)
              (String.concat "," cs)
        in
        Buffer.add_string b
          (Printf.sprintf "  p%d [label=\"%s\"%s];\n" pin (escape label)
             (if clocks <> [] then ", color=blue" else ""))
      end)
    used;
  Buffer.add_buffer b edges;
  Buffer.add_string b "}\n";
  Buffer.contents b

let write path ?individual ?clock_network_only merged =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (export ?individual ?clock_network_only merged))
