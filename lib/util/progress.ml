(* Named done/total trackers with ETA, mutex-protected and always on.
   Rendering to stderr is opt-in (--progress) and throttled so the
   tick path stays cheap; the data path never writes anything, so
   progress tracking is read-only with respect to results. *)

type tracker = {
  tr_name : string;
  tr_done : int;
  tr_total : int;
  tr_start_ns : int64;
  tr_finished : bool;
  tr_elapsed_s : float;
  tr_eta_s : float option;
}

type cell = {
  c_name : string;
  mutable c_done : int;
  mutable c_total : int;
  c_start_ns : int64;
  mutable c_finished : bool;
}

let lock = Mutex.create ()
let cells : (string, cell) Hashtbl.t = Hashtbl.create 8
let order : string list ref = ref [] (* reversed first-activity order *)

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let find_locked name =
  match Hashtbl.find_opt cells name with
  | Some c -> c
  | None ->
    let c =
      { c_name = name; c_done = 0; c_total = 0;
        c_start_ns = Obs.Clock.now_ns (); c_finished = false }
    in
    Hashtbl.replace cells name c;
    order := name :: !order;
    c

(* ------------------------------------------------------------------ *)
(* Rendering (forward declaration so tick can trigger it)              *)

let render_on = Atomic.make false
let set_render b = Atomic.set render_on b

let is_tty = lazy (try Unix.isatty Unix.stderr with _ -> false)

(* Last render instant; the bar redraws at most every 100 ms on a TTY
   and every 2 s on a pipe. Written under [lock]. *)
let last_render_ns = ref 0L
let bar_open = ref false (* a \r-bar line is currently unterminated *)

let bar_of c =
  let width = 24 in
  if c.c_total <= 0 then
    Printf.sprintf "[%s] %s %d" (String.make width '?') c.c_name c.c_done
  else begin
    let frac =
      Float.max 0. (Float.min 1. (float_of_int c.c_done /. float_of_int c.c_total))
    in
    let full = int_of_float (frac *. float_of_int width) in
    let elapsed = Obs.Clock.elapsed_s c.c_start_ns in
    let eta =
      if c.c_done <= 0 || c.c_done >= c.c_total then ""
      else
        Printf.sprintf " ETA %.1fs"
          (elapsed /. float_of_int c.c_done
           *. float_of_int (c.c_total - c.c_done))
    in
    Printf.sprintf "[%s%s] %s %d/%d%s"
      (String.make full '#')
      (String.make (width - full) '-')
      c.c_name c.c_done c.c_total eta
  end

(* Pick the newest unfinished tracker (most recently created still
   running), falling back to the newest overall. Caller holds lock. *)
let current_cell_locked () =
  let rec first_active = function
    | [] -> None
    | name :: rest -> (
      match Hashtbl.find_opt cells name with
      | Some c when not c.c_finished -> Some c
      | _ -> first_active rest)
  in
  match first_active !order with
  | Some c -> Some c
  | None -> (
    match !order with
    | [] -> None
    | name :: _ -> Hashtbl.find_opt cells name)

let render_locked ~force =
  if Atomic.get render_on then begin
    let now = Obs.Clock.now_ns () in
    let min_gap_ns = if Lazy.force is_tty then 100_000_000L else 2_000_000_000L in
    if force || Int64.compare (Int64.sub now !last_render_ns) min_gap_ns >= 0
    then begin
      last_render_ns := now;
      match current_cell_locked () with
      | None -> ()
      | Some c ->
        if Lazy.force is_tty then begin
          (* Pad so a shrinking line leaves no tail characters. *)
          Printf.eprintf "\r%-70s%!" (bar_of c);
          bar_open := true
        end
        else Printf.eprintf "progress: %s %d%s\n%!" c.c_name c.c_done
               (if c.c_total > 0 then Printf.sprintf "/%d" c.c_total else "")
    end
  end

let render_finish () =
  with_lock (fun () ->
      if !bar_open then begin
        prerr_newline ();
        flush stderr;
        bar_open := false
      end)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let add_total ?(by = 1) name =
  with_lock (fun () ->
      let c = find_locked name in
      c.c_total <- c.c_total + by;
      c.c_finished <- false)

let tick ?(by = 1) name =
  with_lock (fun () ->
      let c = find_locked name in
      c.c_done <- c.c_done + by;
      render_locked ~force:false)

let finish name =
  with_lock (fun () ->
      let c = find_locked name in
      if c.c_total > 0 then c.c_done <- c.c_total;
      c.c_finished <- true;
      render_locked ~force:true)

let reset () =
  with_lock (fun () ->
      Hashtbl.reset cells;
      order := [];
      last_render_ns := 0L)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let freeze c =
  let elapsed = Obs.Clock.elapsed_s c.c_start_ns in
  {
    tr_name = c.c_name;
    tr_done = c.c_done;
    tr_total = c.c_total;
    tr_start_ns = c.c_start_ns;
    tr_finished = c.c_finished;
    tr_elapsed_s = elapsed;
    tr_eta_s =
      (if c.c_finished || c.c_total <= 0 || c.c_done <= 0
          || c.c_done >= c.c_total
       then None
       else
         Some
           (elapsed /. float_of_int c.c_done
            *. float_of_int (c.c_total - c.c_done)));
  }

let snapshot () =
  with_lock (fun () ->
      List.rev_map
        (fun name -> freeze (Hashtbl.find cells name))
        !order)

let to_json () =
  let trackers = snapshot () in
  let tr t =
    Printf.sprintf
      {|{"name":"%s","done":%d,"total":%d,"elapsed_s":%s,"eta_s":%s,"finished":%b}|}
      (Metrics.json_escape t.tr_name)
      t.tr_done t.tr_total
      (Metrics.json_float t.tr_elapsed_s)
      (match t.tr_eta_s with
      | None -> "null"
      | Some e -> Metrics.json_float e)
      t.tr_finished
  in
  (* Overall view: the three merge stages summed — the coarse "how far
     through the merge are we" number a dashboard wants first. *)
  let stages =
    List.filter
      (fun t ->
        List.mem t.tr_name
          [ "merge.load"; "merge.mergeability"; "merge.cliques" ])
      trackers
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 stages in
  Printf.sprintf
    {|{"trackers":[%s],"overall":{"stages_done":%d,"stages_total":%d,"units_done":%d,"units_total":%d}}|}
    (String.concat "," (List.map tr trackers))
    (List.length (List.filter (fun t -> t.tr_finished) stages))
    (List.length stages)
    (sum (fun t -> t.tr_done))
    (sum (fun t -> t.tr_total))
