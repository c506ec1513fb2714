module Clock = struct
  (* CLOCK_MONOTONIC via the bechamel stub library — a C call with no
     OCaml-side allocation ([@noalloc], unboxed int64). *)
  let now_ns () = Monotonic_clock.now ()
  let ns_to_s ns = Int64.to_float ns /. 1e9
  let elapsed_s t0 = ns_to_s (Int64.sub (now_ns ()) t0)
end

type gc_delta = {
  gd_minor_words : float;
  gd_major_words : float;
  gd_promoted_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
  gd_top_heap_words : int;
}

type span = {
  sp_id : int;
  sp_parent : int;
  sp_depth : int;
  sp_tid : int;
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_start_ns : int64;
  sp_dur_ns : int64;
  sp_gc : gc_delta option;
}

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* GC telemetry is gated separately: Gc.quick_stat is cheap but not
   free (it allocates a stat record per call), so per-span GC deltas
   are opt-in on top of tracing (--profile-gc). *)
let gc_on = Atomic.make false
let set_gc_enabled b = Atomic.set gc_on b
let gc_enabled () = Atomic.get gc_on

let next_id = Atomic.make 0
let lock = Mutex.create ()
let sink : span list ref = ref []

(* Time-stamped counter samples (Perfetto counter tracks): pool
   occupancy, queue depth, heap watermark. Shares the sink mutex. *)
let csink : (string * int64 * float) list ref = ref []

(* Open spans of the current domain, innermost first: (id, depth). The
   nesting structure is domain-local; only the completed-span sink is
   shared. *)
let stack_key : (int * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let record sp =
  Mutex.lock lock;
  sink := sp :: !sink;
  Mutex.unlock lock

let sample name v =
  if Atomic.get on then begin
    let t = Clock.now_ns () in
    Mutex.lock lock;
    csink := (name, t, v) :: !csink;
    Mutex.unlock lock
  end

let samples () =
  Mutex.lock lock;
  let l = !csink in
  Mutex.unlock lock;
  List.sort (fun (_, a, _) (_, b, _) -> Int64.compare a b) l

(* Per-process GC totals under stable gc.* names — the whole-run
   resource axis. quick_stat reads the calling domain's
   allocation counters plus global heap numbers; under --jobs > 1 the
   totals are therefore an approximation attributed to the driver
   domain, which is fine for run-over-run comparison (the workload,
   not the attribution, is what moves). *)
let gc_totals () =
  let s = Gc.quick_stat () in
  [
    "gc.minor_words", s.Gc.minor_words;
    "gc.promoted_words", s.Gc.promoted_words;
    "gc.major_words", s.Gc.major_words;
    "gc.minor_collections", float_of_int s.Gc.minor_collections;
    "gc.major_collections", float_of_int s.Gc.major_collections;
    "gc.heap_words", float_of_int s.Gc.heap_words;
    "gc.top_heap_words", float_of_int s.Gc.top_heap_words;
  ]

let record_gc_metrics () =
  List.iter (fun (k, v) -> Metrics.set k v) (gc_totals ())

let with_span ?(attrs = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, depth =
      match !stack with [] -> -1, 0 | (p, d) :: _ -> p, d + 1
    in
    stack := (id, depth) :: !stack;
    let g0 = if Atomic.get gc_on then Some (Gc.quick_stat ()) else None in
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Int64.sub (Clock.now_ns ()) t0 in
        let gc =
          match g0 with
          | None -> None
          | Some g0 ->
            let g1 = Gc.quick_stat () in
            sample "gc.heap_words" (float_of_int g1.Gc.heap_words);
            Some
              {
                gd_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
                gd_major_words = g1.Gc.major_words -. g0.Gc.major_words;
                gd_promoted_words =
                  g1.Gc.promoted_words -. g0.Gc.promoted_words;
                gd_minor_collections =
                  g1.Gc.minor_collections - g0.Gc.minor_collections;
                gd_major_collections =
                  g1.Gc.major_collections - g0.Gc.major_collections;
                gd_top_heap_words = g1.Gc.top_heap_words;
              }
        in
        (match !stack with
        | (i, _) :: rest when i = id -> stack := rest
        | _ -> ());
        record
          {
            sp_id = id;
            sp_parent = parent;
            sp_depth = depth;
            sp_tid = (Domain.self () :> int);
            sp_name = name;
            sp_attrs = attrs;
            sp_start_ns = t0;
            sp_dur_ns = dur;
            sp_gc = gc;
          })
      f
  end

(* Cross-domain span context: the innermost open frame of the capturing
   domain, re-installable on another domain so spans recorded there
   attach to the caller's tree instead of rooting their own. *)
type context = (int * int) option

let capture () =
  if not (Atomic.get on) then None
  else
    match !(Domain.DLS.get stack_key) with [] -> None | top :: _ -> Some top

let with_context ctx f =
  match ctx with
  | None -> f ()
  | Some frame ->
    let stack = Domain.DLS.get stack_key in
    let saved = !stack in
    stack := [ frame ];
    Fun.protect ~finally:(fun () -> stack := saved) f

let timed ?attrs name f =
  let t0 = Clock.now_ns () in
  let r = with_span ?attrs name f in
  r, Clock.elapsed_s t0

let spans () =
  Mutex.lock lock;
  let l = !sink in
  Mutex.unlock lock;
  List.sort
    (fun a b -> compare (a.sp_start_ns, a.sp_id) (b.sp_start_ns, b.sp_id))
    l

let reset () =
  Mutex.lock lock;
  sink := [];
  csink := [];
  Mutex.unlock lock

(* ------------------------------------------------------------------ *)
(* Aggregation: one node per distinct span path (root name / ... /     *)
(* span name), in first-seen order, with parent/child links.           *)

type node = {
  nd_name : string;
  nd_depth : int;
  mutable nd_count : int;
  mutable nd_total_ns : int64;
  mutable nd_minor_words : float;    (* summed per-span GC deltas *)
  mutable nd_major_words : float;
  mutable nd_minor_cols : int;
  mutable nd_major_cols : int;
  mutable nd_children : string list; (* child path keys, reverse order *)
}

let add_gc n = function
  | None -> ()
  | Some g ->
    n.nd_minor_words <- n.nd_minor_words +. g.gd_minor_words;
    n.nd_major_words <- n.nd_major_words +. g.gd_major_words;
    n.nd_minor_cols <- n.nd_minor_cols + g.gd_minor_collections;
    n.nd_major_cols <- n.nd_major_cols + g.gd_major_collections

let aggregate () =
  let ss = spans () in
  let path_of_id = Hashtbl.create 64 in (* span id -> path key *)
  let nodes = Hashtbl.create 64 in      (* path key -> node *)
  let roots = ref [] in                 (* root path keys, reverse order *)
  List.iter
    (fun s ->
      let parent_path =
        if s.sp_parent < 0 then None else Hashtbl.find_opt path_of_id s.sp_parent
      in
      let path =
        match parent_path with
        | None -> s.sp_name
        | Some p -> p ^ "\x00" ^ s.sp_name
      in
      Hashtbl.replace path_of_id s.sp_id path;
      (match Hashtbl.find_opt nodes path with
      | Some n ->
        n.nd_count <- n.nd_count + 1;
        n.nd_total_ns <- Int64.add n.nd_total_ns s.sp_dur_ns;
        add_gc n s.sp_gc
      | None ->
        let n =
          {
            nd_name = s.sp_name;
            nd_depth = s.sp_depth;
            nd_count = 1;
            nd_total_ns = s.sp_dur_ns;
            nd_minor_words = 0.;
            nd_major_words = 0.;
            nd_minor_cols = 0;
            nd_major_cols = 0;
            nd_children = [];
          }
        in
        add_gc n s.sp_gc;
        Hashtbl.replace nodes path n;
        (match parent_path with
        | None -> roots := path :: !roots
        | Some p -> (
          match Hashtbl.find_opt nodes p with
          | Some pn -> pn.nd_children <- path :: pn.nd_children
          | None -> roots := path :: !roots))))
    ss;
  List.rev !roots, nodes

let self_ns nodes n =
  let child_total =
    List.fold_left
      (fun acc c ->
        match Hashtbl.find_opt nodes c with
        | Some cn -> Int64.add acc cn.nd_total_ns
        | None -> acc)
      0L n.nd_children
  in
  let s = Int64.sub n.nd_total_ns child_total in
  if Int64.compare s 0L < 0 then 0L else s

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let profile_tree ?(gc = false) () =
  let roots, nodes = aggregate () in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-44s %8s %10s %10s" "span" "calls" "total(s)" "self(s)");
  if gc then
    Buffer.add_string b
      (Printf.sprintf " %10s %7s %7s" "alloc(Mw)" "minGC" "majGC");
  Buffer.add_char b '\n';
  let rec emit path =
    match Hashtbl.find_opt nodes path with
    | None -> ()
    | Some n ->
      let label = String.make (2 * n.nd_depth) ' ' ^ n.nd_name in
      Buffer.add_string b
        (Printf.sprintf "%-44s %8d %10.4f %10.4f" label n.nd_count
           (Clock.ns_to_s n.nd_total_ns)
           (Clock.ns_to_s (self_ns nodes n)));
      if gc then
        Buffer.add_string b
          (Printf.sprintf " %10.3f %7d %7d"
             ((n.nd_minor_words +. n.nd_major_words) /. 1e6)
             n.nd_minor_cols n.nd_major_cols);
      Buffer.add_char b '\n';
      List.iter emit (List.rev n.nd_children)
  in
  List.iter emit roots;
  Buffer.contents b

let trace_event_json () =
  let ss = spans () in
  let cs = samples () in
  let base =
    match ss, cs with
    | s :: _, (_, t, _) :: _ -> Int64.min s.sp_start_ns t
    | s :: _, [] -> s.sp_start_ns
    | [], (_, t, _) :: _ -> t
    | [], [] -> 0L
  in
  let us ns = Int64.to_float ns /. 1e3 in
  (* Perfetto metadata: name the process, and label each span lane by
     its OCaml domain id instead of a bare tid. *)
  let tids =
    List.sort_uniq compare (List.map (fun s -> s.sp_tid) ss)
  in
  let meta =
    Printf.sprintf
      {|{"name":"process_name","ph":"M","pid":0,"args":{"name":"modemerge"}}|}
    :: List.map
         (fun tid ->
           Printf.sprintf
             {|{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"domain %d%s"}}|}
             tid tid
             (if tid = 0 then " (driver)" else " (pool worker)"))
         tids
  in
  let event s =
    let args =
      match s.sp_attrs with
      | [] -> ""
      | attrs ->
        let field (k, v) =
          Printf.sprintf {|"%s":"%s"|} (Metrics.json_escape k)
            (Metrics.json_escape v)
        in
        Printf.sprintf {|,"args":{%s}|}
          (String.concat "," (List.map field attrs))
    in
    Printf.sprintf
      {|{"name":"%s","cat":"modemerge","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d%s}|}
      (Metrics.json_escape s.sp_name)
      (Metrics.json_float (us (Int64.sub s.sp_start_ns base)))
      (Metrics.json_float (us s.sp_dur_ns))
      s.sp_tid args
  in
  (* Counter tracks ("ph":"C"): one series per sample name — pool
     occupancy, queue depth, heap watermark — rendered by Perfetto as
     counter lanes alongside the span lanes. *)
  let counter (name, t, v) =
    Printf.sprintf
      {|{"name":"%s","cat":"modemerge","ph":"C","ts":%s,"pid":0,"args":{"value":%s}}|}
      (Metrics.json_escape name)
      (Metrics.json_float (us (Int64.sub t base)))
      (Metrics.json_float v)
  in
  Printf.sprintf {|{"traceEvents":[%s],"displayTimeUnit":"ms"}|}
    (String.concat ","
       (meta @ List.map event ss @ List.map counter cs))

(* Per-name aggregates for the flat export: nodes of the same span name
   merged across paths. *)
let span_summaries () =
  let roots, nodes = aggregate () in
  ignore roots;
  let by_name = Hashtbl.create 32 in
  let order = ref [] in
  Hashtbl.iter
    (fun _path n ->
      let self = self_ns nodes n in
      match Hashtbl.find_opt by_name n.nd_name with
      | Some (count, total, slf) ->
        Hashtbl.replace by_name n.nd_name
          (count + n.nd_count, Int64.add total n.nd_total_ns, Int64.add slf self)
      | None ->
        order := n.nd_name :: !order;
        Hashtbl.replace by_name n.nd_name (n.nd_count, n.nd_total_ns, self))
    nodes;
  List.map
    (fun name ->
      let count, total, self = Hashtbl.find by_name name in
      name, count, Clock.ns_to_s total, Clock.ns_to_s self)
    (List.sort String.compare !order)

let metrics_json () =
  let span_field (name, calls, total_s, self_s) =
    Printf.sprintf {|"%s":{"calls":%d,"total_s":%s,"self_s":%s}|}
      (Metrics.json_escape name) calls
      (Metrics.json_float total_s)
      (Metrics.json_float self_s)
  in
  Printf.sprintf {|{"metrics":%s,"spans":{%s}}|} (Metrics.to_json ())
    (String.concat "," (List.map span_field (span_summaries ())))
