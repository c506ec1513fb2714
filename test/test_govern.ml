(* Tier-1 unit tests for the resource-governance layer: Govern tokens
   (deadlines, the sub tree, the ambient checkpoint), structured
   outcomes, the memory watermark, governed Pool batches with crash
   backtraces, Chaos fault plans and the Metrics counter snapshot. *)

module Govern = Mm_util.Govern
module Chaos = Mm_util.Chaos
module Pool = Mm_util.Pool
module Metrics = Mm_util.Metrics

let () = Printexc.record_backtrace true

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Tokens: deadlines and the sub tree                                  *)

let test_never () =
  check Alcotest.bool "never is live" true (Govern.cancelled Govern.never = None);
  check Alcotest.bool "a scoped sub of never has no deadline" true
    (Govern.cancelled (Govern.sub ~scope:"n" Govern.never) = None);
  Govern.check Govern.never

let test_deadline () =
  let t = Govern.create ~deadline_s:0.0 ~scope:"d" () in
  (match Govern.cancelled t with
  | Some (Govern.Deadline_exceeded { scope; _ }) ->
    check Alcotest.string "deadline carries scope" "d" scope
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  check Alcotest.bool "check raises Cancelled" true
    (match Govern.check t with
    | exception Govern.Cancelled (Govern.Deadline_exceeded _) -> true
    | () -> false);
  let live = Govern.create ~deadline_s:60.0 () in
  check Alcotest.bool "live token not expired" true (Govern.cancelled live = None);
  (* The expired parent's deadline folds into a child with a longer
     budget. *)
  match Govern.cancelled (Govern.sub ~budget_s:60.0 (Govern.create ~deadline_s:0.0 ())) with
  | Some (Govern.Deadline_exceeded { budget_s; _ }) ->
    check (Alcotest.float 0.) "the parent's budget expired" 0.0 budget_s
  | _ -> Alcotest.fail "a 60 s child of an expired parent must be cancelled"

let test_sub_tree () =
  let p = Govern.create ~scope:"p" () in
  let blown = Govern.sub ~scope:"c" ~budget_s:0.0 p in
  check Alcotest.bool "child budget expires child" true
    (Govern.cancelled blown <> None);
  check Alcotest.bool "parent unaffected" true (Govern.cancelled p = None);
  (* the parent deadline folds into the child at sub time *)
  let p2 = Govern.create ~deadline_s:0.0 ~scope:"p2" () in
  let c3 = Govern.sub ~scope:"c3" ~budget_s:1000.0 p2 in
  (match Govern.cancelled c3 with
  | Some (Govern.Deadline_exceeded _) -> ()
  | _ -> Alcotest.fail "ancestor deadline must expire the child");
  check Alcotest.bool "sub of never is still ungoverned" true
    (Govern.cancelled (Govern.sub Govern.never) = None)

(* A budget whose deadline lies past the int64 nanosecond clock range
   is no deadline at all, not one that wrapped into the past. *)
let test_huge_budget () =
  let root = Govern.create ~deadline_s:1e10 ~scope:"huge" () in
  check Alcotest.bool "1e10 s root not expired" true (Govern.cancelled root = None);
  check Alcotest.bool "1e12 s child of the 1e10 s root not expired" true
    (Govern.cancelled (Govern.sub ~budget_s:1e12 root) = None);
  let child = Govern.sub ~scope:"c" ~budget_s:1e12 (Govern.create ()) in
  check Alcotest.bool "1e12 s child not expired" true
    (Govern.cancelled child = None);
  let capped = Govern.sub ~budget_s:1e12 (Govern.create ~deadline_s:0. ()) in
  check Alcotest.bool "parent deadline still applies" true
    (Govern.cancelled capped <> None)

let test_reason_codes () =
  check Alcotest.string "deadline code" "govern.deadline"
    (Govern.reason_code
       (Govern.Deadline_exceeded { scope = "x"; budget_s = 1.0 }));
  check Alcotest.string "memory code" "govern.memory"
    (Govern.reason_code
       (Govern.Memory_watermark { used_mb = 2.0; limit_mb = 1.0 }))

(* ------------------------------------------------------------------ *)
(* Ambient token and the cooperative checkpoint                        *)

let test_ambient_checkpoint () =
  (* free when nothing is installed *)
  Govern.checkpoint ();
  let t = Govern.create ~deadline_s:0. ~scope:"amb" () in
  let raised =
    try
      Govern.with_current t (fun () ->
          Govern.checkpoint ();
          false)
    with Govern.Cancelled (Govern.Deadline_exceeded _) -> true
  in
  check Alcotest.bool "checkpoint observes the ambient token" true raised;
  (* the previous ambient token is restored on raise *)
  Govern.checkpoint ()

(* ------------------------------------------------------------------ *)
(* Structured outcomes                                                 *)

let test_outcomes () =
  (match Govern.run Govern.never (fun () -> 41 + 1) with
  | Govern.Done v -> check Alcotest.int "done value" 42 v
  | _ -> Alcotest.fail "expected Done");
  let pre = Govern.create ~deadline_s:0. () in
  let ran = ref false in
  (match Govern.run pre (fun () -> ran := true) with
  | Govern.Interrupted (Govern.Deadline_exceeded _) ->
    check Alcotest.bool "an expired token runs nothing" false !ran
  | _ -> Alcotest.fail "expected Interrupted at entry");
  (match Govern.run Govern.never (fun () -> failwith "boom") with
  | Govern.Crashed { exn = Failure m; _ } ->
    check Alcotest.string "crash exn" "boom" m
  | _ -> Alcotest.fail "expected Crashed");
  (* a checkpoint inside the thunk surfaces as Interrupted, not a raise:
     the deadline passes while the thunk sleeps *)
  let mid = Govern.create ~deadline_s:0.1 ~scope:"mid" () in
  let entered = ref false in
  (match
     Govern.run mid (fun () ->
         entered := true;
         Unix.sleepf 0.15;
         Govern.checkpoint ();
         0)
   with
  | Govern.Interrupted (Govern.Deadline_exceeded { scope; _ }) ->
    check Alcotest.bool "passed the entry check" true !entered;
    check Alcotest.string "interrupt scope" "mid" scope
  | _ -> Alcotest.fail "expected Interrupted from checkpoint");
  let crashed = Govern.run Govern.never (fun () -> failwith "again") in
  try
    ignore (Govern.value crashed);
    Alcotest.fail "value must re-raise a crash"
  with Failure m -> check Alcotest.string "reraised exn" "again" m

let test_memory_watermark () =
  Fun.protect
    ~finally:(fun () -> Govern.set_memory_limit_mb None)
    (fun () ->
      check Alcotest.bool "off by default" true
        (Govern.memory_pressure () = None);
      Govern.set_memory_limit_mb (Some 0.0001);
      (match Govern.memory_pressure () with
      | Some (Govern.Memory_watermark { used_mb; limit_mb }) ->
        check Alcotest.bool "heap exceeds tiny limit" true (used_mb > limit_mb)
      | _ -> Alcotest.fail "expected memory pressure");
      (* any real token observes the process-wide watermark *)
      (match Govern.cancelled (Govern.create ()) with
      | Some (Govern.Memory_watermark _) -> ()
      | _ -> Alcotest.fail "token must observe the watermark");
      Govern.set_memory_limit_mb None;
      check Alcotest.bool "cleared" true (Govern.memory_pressure () = None))

(* ------------------------------------------------------------------ *)
(* Governed pool batches                                               *)

let done_values outs =
  List.map
    (function
      | Govern.Done v -> v
      | Govern.Interrupted _ -> Alcotest.fail "unexpected Interrupted"
      | Govern.Crashed _ -> Alcotest.fail "unexpected Crashed")
    outs

let test_pool_done () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let outs = Pool.map_outcome pool (fun x -> x * 2) [ 1; 2; 3; 4; 5 ] in
          check
            Alcotest.(list int)
            (Printf.sprintf "jobs=%d results in input order" jobs)
            [ 2; 4; 6; 8; 10 ] (done_values outs)))
    [ 1; 3 ]

let test_pool_crash_outcome () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let outs =
        Pool.map_outcome pool
          (fun x -> if x = 2 then failwith "task2" else x)
          [ 1; 2; 3 ]
      in
      match outs with
      | [ Govern.Done 1; Govern.Crashed { exn = Failure m; backtrace };
          Govern.Done 3 ] ->
        check Alcotest.string "crash exn" "task2" m;
        check Alcotest.bool "crash carries a real backtrace" true
          (Printexc.raw_backtrace_to_string backtrace <> "")
      | _ -> Alcotest.fail "expected Done/Crashed/Done in input order")

let test_pool_map_reraises_with_backtrace () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match
            Pool.map pool
              (fun x -> if x = 1 then failwith "deep failure" else x)
              [ 0; 1; 2 ]
          with
          | _ -> Alcotest.fail "expected the worker crash to re-raise"
          | exception Failure m ->
            check Alcotest.string
              (Printf.sprintf "jobs=%d original exception" jobs)
              "deep failure" m))
    [ 1; 4 ]

let test_pool_precancelled_drains () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let t = Govern.create ~deadline_s:0. ~scope:"drain" () in
          let outs = Pool.map_outcome pool ~govern:t (fun x -> x) [ 1; 2; 3 ] in
          check Alcotest.int
            (Printf.sprintf "jobs=%d all tasks drained as Interrupted" jobs)
            3
            (List.length
               (List.filter
                  (function Govern.Interrupted _ -> true | _ -> false)
                  outs))))
    [ 1; 4 ]

let test_pool_task_budget () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let t = Govern.create ~scope:"b" () in
          let outs =
            Pool.map_outcome pool ~govern:t ~task_budget_s:0.0 (fun x -> x)
              [ 1; 2 ]
          in
          List.iter
            (function
              | Govern.Interrupted (Govern.Deadline_exceeded _) -> ()
              | _ ->
                Alcotest.failf "jobs=%d: expected per-task deadline interruption"
                  jobs)
            outs))
    [ 1; 4 ]

let test_pool_midbatch_cancel () =
  (* jobs=1 is sequential, so the drain point is deterministic: task 1
     outlives the batch budget, and the tasks after it never run. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let t = Govern.create ~deadline_s:0.1 ~scope:"mid" () in
      let outs =
        Pool.map_outcome pool ~govern:t
          (fun x ->
            if x = 1 then Unix.sleepf 0.15;
            x)
          [ 0; 1; 2; 3 ]
      in
      match outs with
      | [ Govern.Done 0; Govern.Done 1; Govern.Interrupted _;
          Govern.Interrupted _ ] ->
        ()
      | _ -> Alcotest.fail "expected the tail of the batch to drain")

(* ------------------------------------------------------------------ *)
(* Chaos fault plans                                                   *)

let with_chaos spec f =
  (match Chaos.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos spec %S rejected: %s" spec e);
  Fun.protect ~finally:Chaos.clear f

let test_chaos_inactive () =
  with_chaos "" (fun () ->
      check Alcotest.bool "empty plan is inactive" false (Chaos.active ());
      Chaos.hit "pool.task";
      check Alcotest.int "no counting when inactive" 0
        (Chaos.hit_count "pool.task"))

let test_chaos_nth_raise () =
  with_chaos "pool.task@1=raise" (fun () ->
      check Alcotest.bool "active" true (Chaos.active ());
      (try
         Chaos.hit "pool.task";
         Alcotest.fail "occurrence 1 must raise"
       with Chaos.Injected site -> check Alcotest.string "site" "pool.task" site);
      Chaos.hit "pool.task";
      check Alcotest.int "occurrences counted" 2 (Chaos.hit_count "pool.task");
      Chaos.hit "sta.propagate";
      check Alcotest.int "other sites count independently" 1
        (Chaos.hit_count "sta.propagate"))

let test_chaos_every_occurrence () =
  with_chaos "x@*=raise" (fun () ->
      List.iter
        (fun _ ->
          try
            Chaos.hit "x";
            Alcotest.fail "every occurrence must raise"
          with Chaos.Injected _ -> ())
        [ (); (); () ])

let test_chaos_reconfigure_resets () =
  with_chaos "a@1=raise" (fun () ->
      (try Chaos.hit "a" with Chaos.Injected _ -> ());
      (match Chaos.configure "a@1=raise" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check Alcotest.int "counters reset on reconfigure" 0 (Chaos.hit_count "a");
      try
        Chaos.hit "a";
        Alcotest.fail "occurrence 1 fires again after reconfigure"
      with Chaos.Injected _ -> ())

let test_chaos_delay () =
  with_chaos "slow@1=delay:5" (fun () ->
      let t0 = Unix.gettimeofday () in
      Chaos.hit "slow";
      check Alcotest.bool "delay slept" true (Unix.gettimeofday () -. t0 >= 0.004);
      Chaos.hit "slow" (* occurrence 2: no delay, no raise *))

let test_chaos_malformed () =
  List.iter
    (fun spec ->
      match Chaos.configure spec with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "malformed spec %S accepted" spec)
    [
      "nonsense"; "site@=raise"; "site@0=raise"; "site@one=raise";
      "site@1=explode"; "site@1=delay:soon"; "site@1=kill:often";
      "site@1=kill";
    ];
  check Alcotest.bool "no plan installed after errors" false (Chaos.active ())

(* ------------------------------------------------------------------ *)
(* Metrics counter snapshot                                           *)

let test_counters_snapshot () =
  Metrics.reset ();
  Metrics.incr ~by:3 "t.alpha";
  Metrics.incr "t.beta";
  let snap = Metrics.counters () in
  check Alcotest.bool "snapshot holds alpha" true (List.mem ("t.alpha", 3) snap);
  check Alcotest.bool "snapshot holds beta" true (List.mem ("t.beta", 1) snap);
  Metrics.reset ();
  check Alcotest.int "reset clears" 0 (Metrics.get_counter "t.alpha")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mm_govern"
    [
      ( "tokens",
        [
          tc "never" test_never;
          tc "deadline" test_deadline;
          tc "sub tree" test_sub_tree;
          tc "budget past the clock range" test_huge_budget;
          tc "reason codes" test_reason_codes;
          tc "ambient checkpoint" test_ambient_checkpoint;
          tc "outcomes" test_outcomes;
          tc "memory watermark" test_memory_watermark;
        ] );
      ( "pool",
        [
          tc "done outcomes" test_pool_done;
          tc "crash outcome with backtrace" test_pool_crash_outcome;
          tc "map re-raises worker crash" test_pool_map_reraises_with_backtrace;
          tc "pre-cancelled batch drains" test_pool_precancelled_drains;
          tc "task budget" test_pool_task_budget;
          tc "mid-batch cancel drains tail" test_pool_midbatch_cancel;
        ] );
      ( "chaos",
        [
          tc "inactive" test_chaos_inactive;
          tc "nth occurrence raise" test_chaos_nth_raise;
          tc "every occurrence" test_chaos_every_occurrence;
          tc "reconfigure resets" test_chaos_reconfigure_resets;
          tc "delay" test_chaos_delay;
          tc "malformed specs" test_chaos_malformed;
        ] );
      "metrics", [ tc "counter snapshot/restore" test_counters_snapshot ];
    ]
