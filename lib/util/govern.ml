type reason =
  | Deadline_exceeded of { scope : string; budget_s : float }
  | Memory_watermark of { used_mb : float; limit_mb : float }

let reason_to_string = function
  | Deadline_exceeded { scope; budget_s } ->
    Printf.sprintf "deadline exceeded in %s (budget %.3gs)" scope budget_s
  | Memory_watermark { used_mb; limit_mb } ->
    Printf.sprintf "memory watermark: %.1f MiB heap over %.1f MiB limit"
      used_mb limit_mb

let reason_code = function
  | Deadline_exceeded _ -> "govern.deadline"
  | Memory_watermark _ -> "govern.memory"

exception Cancelled of reason

let () =
  Printexc.register_printer (function
    | Cancelled r -> Some (Printf.sprintf "Govern.Cancelled(%s)" (reason_to_string r))
    | _ -> None)

type token = {
  tk_scope : string;
  tk_deadline_ns : int64 option; (* absolute Obs.Clock.now_ns instant *)
  tk_budget_s : float; (* the relative budget behind tk_deadline_ns *)
}

let never =
  {
    tk_scope = "govern";
    tk_deadline_ns = None;
    tk_budget_s = infinity;
  }

let scope t = t.tk_scope

(* The absolute instant [budget_s] from now; [None] when that instant
   lies past the int64 nanosecond range, which no run can reach. *)
let deadline_of ~budget_s =
  let now = Obs.Clock.now_ns () in
  if Int64.to_float now +. (budget_s *. 1e9) < Int64.to_float Int64.max_int
  then Some (Int64.add now (Int64.of_float (budget_s *. 1e9)))
  else None

let create ?deadline_s ?(scope = "run") () =
  {
    tk_scope = scope;
    tk_deadline_ns = Option.bind deadline_s (fun s -> deadline_of ~budget_s:s);
    tk_budget_s = Option.value deadline_s ~default:infinity;
  }

let sub ?scope ?budget_s parent =
  if parent == never && budget_s = None && scope = None then never
  else
    let own = Option.bind budget_s (fun s -> deadline_of ~budget_s:s) in
    let deadline_ns, budget =
      match own, parent.tk_deadline_ns with
      | None, d -> d, parent.tk_budget_s
      | (Some _ as d), None -> d, Option.get budget_s
      | Some o, Some p ->
        if Int64.compare o p <= 0 then Some o, Option.get budget_s
        else Some p, parent.tk_budget_s
    in
    {
      tk_scope = Option.value scope ~default:parent.tk_scope;
      tk_deadline_ns = deadline_ns;
      tk_budget_s = budget;
    }

(* ------------------------------------------------------------------ *)
(* Memory watermark                                                    *)

let mem_limit_mb : float option Atomic.t = Atomic.make None

let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. (1024. *. 1024.)

(* The watermark is consulted from every checkpoint, so a tripped limit
   would journal thousands of identical events; log the first trip only
   (the flag rearms when the limit is reconfigured). *)
let pressure_logged = Atomic.make false

let set_memory_limit_mb l =
  Atomic.set pressure_logged false;
  Atomic.set mem_limit_mb l

let memory_pressure () =
  match Atomic.get mem_limit_mb with
  | None -> None
  | Some limit_mb ->
    (* quick_stat reads the allocation pointers without walking the
       heap, so this is safe to call from every checkpoint. *)
    let st = Gc.quick_stat () in
    let used_mb =
      words_to_mb (float_of_int st.Gc.heap_words +. st.Gc.minor_words
                   -. st.Gc.promoted_words
                   -. float_of_int st.Gc.free_words
                   |> Float.max 0.)
    in
    if used_mb > limit_mb then begin
      if not (Atomic.exchange pressure_logged true) then
        Obs.event "govern.pressure"
          ~attrs:
            [ "used_mb", Printf.sprintf "%.1f" used_mb;
              "limit_mb", Printf.sprintf "%.1f" limit_mb ];
      Some (Memory_watermark { used_mb; limit_mb })
    end
    else None

(* ------------------------------------------------------------------ *)
(* Expiry checks                                                       *)

(* The deadline tree is already folded into each token's own deadline
   at [sub] time, so one comparison covers every ancestor budget. *)
let deadline_hit t =
  match t.tk_deadline_ns with
  | None -> None
  | Some d ->
    if Int64.compare (Obs.Clock.now_ns ()) d >= 0 then
      Some (Deadline_exceeded { scope = t.tk_scope; budget_s = t.tk_budget_s })
    else None

let cancelled t =
  if t == never then None
  else
    match deadline_hit t with
    | Some _ as r -> r
    | None -> memory_pressure ()

let check t = match cancelled t with None -> () | Some r -> raise (Cancelled r)

(* ------------------------------------------------------------------ *)
(* Ambient token                                                       *)

let current_key : token Domain.DLS.key = Domain.DLS.new_key (fun () -> never)

let with_current t f =
  let saved = Domain.DLS.get current_key in
  Domain.DLS.set current_key t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key saved) f

let checkpoint () =
  let t = Domain.DLS.get current_key in
  if t != never then check t
  else
    (* Even ungoverned runs honour an explicit process-wide watermark. *)
    match Atomic.get mem_limit_mb with
    | None -> ()
    | Some _ -> (
      match memory_pressure () with
      | None -> ()
      | Some r -> raise (Cancelled r))

(* ------------------------------------------------------------------ *)
(* Structured outcomes                                                 *)

type 'a outcome =
  | Done of 'a
  | Interrupted of reason
  | Crashed of { exn : exn; backtrace : Printexc.raw_backtrace }

let run t f =
  match cancelled t with
  | Some r -> Interrupted r
  | None -> (
    match with_current t f with
    | v -> Done v
    | exception Cancelled r -> Interrupted r
    | exception exn ->
      Crashed { exn; backtrace = Printexc.get_raw_backtrace () })

let value = function
  | Done v -> v
  | Interrupted r -> raise (Cancelled r)
  | Crashed { exn; backtrace } -> Printexc.raise_with_backtrace exn backtrace

let failure_to_string = function
  | Done _ -> ""
  | Interrupted r -> reason_to_string r
  | Crashed { exn; _ } -> Printexc.to_string exn
