(* Unit and property tests for Mm_util. *)
module Glob = Mm_util.Glob
module Toler = Mm_util.Toler
module Prng = Mm_util.Prng
module Vec = Mm_util.Vec
module Tab = Mm_util.Tab
module Stat = Mm_util.Stat
module Pool = Mm_util.Pool
module Metrics = Mm_util.Metrics
module Diag = Mm_util.Diag

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Glob                                                                *)

let glob_cases =
  [
    tc "literal matches itself" (fun () ->
        check Alcotest.bool "eq" true (Glob.matches_string ~pattern:"rA/CP" "rA/CP"));
    tc "literal rejects others" (fun () ->
        check Alcotest.bool "neq" false (Glob.matches_string ~pattern:"rA/CP" "rA/CQ"));
    tc "star matches empty" (fun () ->
        check Alcotest.bool "m" true (Glob.matches_string ~pattern:"r*" "r"));
    tc "star matches long suffix" (fun () ->
        check Alcotest.bool "m" true (Glob.matches_string ~pattern:"r*" "r_0_1_2/Q"));
    tc "inner star" (fun () ->
        check Alcotest.bool "m" true (Glob.matches_string ~pattern:"r*/D" "r_abc/D"));
    tc "inner star rejects wrong tail" (fun () ->
        check Alcotest.bool "m" false (Glob.matches_string ~pattern:"r*/D" "r_abc/Q"));
    tc "question matches one char" (fun () ->
        check Alcotest.bool "m" true (Glob.matches_string ~pattern:"r?" "rA"));
    tc "question rejects two chars" (fun () ->
        check Alcotest.bool "m" false (Glob.matches_string ~pattern:"r?" "rAB"));
    tc "multiple stars" (fun () ->
        check Alcotest.bool "m" true
          (Glob.matches_string ~pattern:"*cfg*0*" "xx_cfg_10"));
    tc "star backtracking" (fun () ->
        check Alcotest.bool "m" true (Glob.matches_string ~pattern:"*ab" "aab"));
    tc "empty pattern matches empty only" (fun () ->
        check Alcotest.bool "m" true (Glob.matches_string ~pattern:"" "");
        check Alcotest.bool "m" false (Glob.matches_string ~pattern:"" "x"));
    tc "is_literal" (fun () ->
        check Alcotest.bool "lit" true (Glob.is_literal (Glob.compile "abc"));
        check Alcotest.bool "not lit" false (Glob.is_literal (Glob.compile "a*c"));
        check Alcotest.bool "q not lit" false (Glob.is_literal (Glob.compile "a?c")));
    tc "literal accessor" (fun () ->
        check
          Alcotest.(option string)
          "some" (Some "abc")
          (Glob.literal (Glob.compile "abc"));
        check Alcotest.(option string) "none" None (Glob.literal (Glob.compile "a*")));
    tc "pattern accessor" (fun () ->
        check Alcotest.string "pat" "a*b" (Glob.pattern (Glob.compile "a*b")));
  ]

(* Reference matcher by exhaustive recursion, to cross-check the
   iterative implementation. *)
let rec ref_match p s ip is =
  if ip = String.length p then is = String.length s
  else
    match p.[ip] with
    | '*' ->
      let rec try_len k =
        k <= String.length s - is
        && (ref_match p s (ip + 1) (is + k) || try_len (k + 1))
      in
      try_len 0
    | '?' -> is < String.length s && ref_match p s (ip + 1) (is + 1)
    | c -> is < String.length s && s.[is] = c && ref_match p s (ip + 1) (is + 1)

let glob_props =
  let pat_gen =
    QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '*'; '?'; '/' ]) (0 -- 8))
  in
  let str_gen =
    QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '/' ]) (0 -- 10))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"glob agrees with reference matcher" ~count:2000
         QCheck2.Gen.(pair pat_gen str_gen)
         (fun (p, s) -> Glob.matches_string ~pattern:p s = ref_match p s 0 0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"star-only pattern matches everything" ~count:200
         str_gen (fun s -> Glob.matches_string ~pattern:"*" s));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"literal pattern matches only itself" ~count:500
         QCheck2.Gen.(pair str_gen str_gen)
         (fun (p, s) ->
           QCheck2.assume (not (String.exists (fun c -> c = '*' || c = '?') p));
           Glob.matches_string ~pattern:p s = String.equal p s));
  ]

(* ------------------------------------------------------------------ *)
(* Toler                                                               *)

let toler_cases =
  [
    tc "within relative tolerance" (fun () ->
        let t = Toler.make ~rel:0.05 ~abs:0. () in
        check Alcotest.bool "in" true (Toler.within t 1.0 1.04);
        check Alcotest.bool "out" false (Toler.within t 1.0 1.06));
    tc "within absolute tolerance" (fun () ->
        let t = Toler.make ~rel:0. ~abs:0.1 () in
        check Alcotest.bool "in" true (Toler.within t 0.0 0.09);
        check Alcotest.bool "out" false (Toler.within t 0.0 0.11));
    tc "paper latency example within default" (fun () ->
        check Alcotest.bool "1.0 vs 0.98" true (Toler.within Toler.default 1.0 0.98));
    tc "exact tolerance" (fun () ->
        check Alcotest.bool "same" true (Toler.within Toler.exact 2.0 2.0);
        check Alcotest.bool "diff" false (Toler.within Toler.exact 2.0 2.0000001));
    tc "within_opt" (fun () ->
        check Alcotest.bool "none none" true
          (Toler.within_opt Toler.default None None);
        check Alcotest.bool "some none" false
          (Toler.within_opt Toler.default (Some 1.) None);
        check Alcotest.bool "some some" true
          (Toler.within_opt Toler.default (Some 1.) (Some 1.)));
    tc "merge min and max" (fun () ->
        check (Alcotest.float 0.) "min" 0.98 (Toler.merge_min 1.0 0.98);
        check (Alcotest.float 0.) "max" 1.0 (Toler.merge_max 1.0 0.98));
  ]

let toler_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"within is symmetric" ~count:1000
         QCheck2.Gen.(pair (float_range (-10.) 10.) (float_range (-10.) 10.))
         (fun (a, b) ->
           Toler.within Toler.default a b = Toler.within Toler.default b a));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"within is reflexive" ~count:500
         QCheck2.Gen.(float_range (-1e6) 1e6)
         (fun a -> Toler.within Toler.default a a));
  ]

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let prng_cases =
  [
    tc "deterministic for equal seeds" (fun () ->
        let a = Prng.create 42 and b = Prng.create 42 in
        for _ = 1 to 100 do
          check Alcotest.int64 "same" (Prng.next a) (Prng.next b)
        done);
    tc "different seeds diverge" (fun () ->
        let a = Prng.create 1 and b = Prng.create 2 in
        check Alcotest.bool "differ" true (Prng.next a <> Prng.next b));
    tc "copy forks the stream" (fun () ->
        let a = Prng.create 7 in
        ignore (Prng.next a);
        let b = Prng.copy a in
        check Alcotest.int64 "forked" (Prng.next a) (Prng.next b));
    tc "range inclusive bounds" (fun () ->
        let rng = Prng.create 3 in
        for _ = 1 to 1000 do
          let v = Prng.range rng 5 9 in
          check Alcotest.bool "bounds" true (v >= 5 && v <= 9)
        done);
    tc "shuffle is a permutation" (fun () ->
        let rng = Prng.create 11 in
        let a = Array.init 50 Fun.id in
        Prng.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        check Alcotest.(array int) "permutation" (Array.init 50 Fun.id) sorted);
  ]

let prng_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"int bound respected" ~count:1000
         QCheck2.Gen.(pair small_int (int_range 1 1000))
         (fun (seed, bound) ->
           let rng = Prng.create seed in
           let v = Prng.int rng bound in
           v >= 0 && v < bound));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"float bound respected" ~count:1000
         QCheck2.Gen.(pair small_int (float_range 0.001 100.))
         (fun (seed, bound) ->
           let rng = Prng.create seed in
           let v = Prng.float rng bound in
           v >= 0. && v < bound));
  ]

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let vec_cases =
  [
    tc "push returns stable indices" (fun () ->
        let v = Vec.create () in
        for i = 0 to 99 do
          check Alcotest.int "index" i (Vec.push v i)
        done;
        check Alcotest.int "len" 100 (Vec.length v));
    tc "get/set" (fun () ->
        let v = Vec.create () in
        ignore (Vec.push v "a");
        ignore (Vec.push v "b");
        Vec.set v 1 "c";
        check Alcotest.string "get" "c" (Vec.get v 1));
    tc "out of bounds raises" (fun () ->
        let v = Vec.create () in
        ignore (Vec.push v 1);
        Alcotest.check_raises "get" (Invalid_argument "Vec: index out of bounds")
          (fun () -> ignore (Vec.get v 1));
        Alcotest.check_raises "neg" (Invalid_argument "Vec: index out of bounds")
          (fun () -> ignore (Vec.get v (-1))));
    tc "to_list and fold" (fun () ->
        let v = Vec.create () in
        List.iter (fun x -> ignore (Vec.push v x)) [ 1; 2; 3 ];
        check Alcotest.(list int) "list" [ 1; 2; 3 ] (Vec.to_list v);
        check Alcotest.int "fold" 6 (Vec.fold ( + ) 0 v));
    tc "iteri order" (fun () ->
        let v = Vec.create () in
        List.iter (fun x -> ignore (Vec.push v x)) [ 10; 20 ];
        let acc = ref [] in
        Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
        check
          Alcotest.(list (pair int int))
          "order" [ (0, 10); (1, 20) ] (List.rev !acc));
    tc "exists and find_index" (fun () ->
        let v = Vec.create () in
        List.iter (fun x -> ignore (Vec.push v x)) [ 5; 6; 7 ];
        check Alcotest.bool "exists" true (Vec.exists (( = ) 6) v);
        check Alcotest.(option int) "find" (Some 2) (Vec.find_index (( = ) 7) v);
        check Alcotest.(option int) "none" None (Vec.find_index (( = ) 9) v));
  ]

(* ------------------------------------------------------------------ *)
(* Tab                                                                 *)

let tab_cases =
  [
    tc "renders golden table" (fun () ->
        let t = Tab.create ~aligns:[ Tab.Left; Tab.Right ] [ "k"; "value" ] in
        Tab.add_row t [ "a"; "1" ];
        Tab.add_row t [ "bb"; "22" ];
        let expected =
          "+----+-------+\n\
           | k  | value |\n\
           +----+-------+\n\
           | a  |     1 |\n\
           | bb |    22 |\n\
           +----+-------+\n"
        in
        check Alcotest.string "golden" expected (Tab.render t));
    tc "short rows padded" (fun () ->
        let t = Tab.create [ "a"; "b" ] in
        Tab.add_row t [ "x" ];
        check Alcotest.bool "renders" true (String.length (Tab.render t) > 0));
    tc "too many cells rejected" (fun () ->
        let t = Tab.create [ "a" ] in
        Alcotest.check_raises "raise"
          (Invalid_argument "Tab.add_row: too many cells") (fun () ->
            Tab.add_row t [ "x"; "y" ]));
    tc "title and separator" (fun () ->
        let t = Tab.create [ "a" ] in
        Tab.add_row t [ "1" ];
        Tab.add_sep t;
        Tab.add_row t [ "2" ];
        let out = Tab.render ~title:"T" t in
        check Alcotest.bool "has title" true (String.length out > 0);
        check Alcotest.bool "starts with T" true (out.[0] = 'T'));
  ]

(* ------------------------------------------------------------------ *)
(* Stat                                                                *)

let stat_cases =
  [
    tc "mean" (fun () ->
        check (Alcotest.float 1e-9) "mean" 2. (Stat.mean [ 1.; 2.; 3. ]);
        check (Alcotest.float 1e-9) "empty" 0. (Stat.mean []));
    tc "mean_opt" (fun () ->
        check
          (Alcotest.option (Alcotest.float 1e-9))
          "some" (Some 2.)
          (Stat.mean_opt [ 1.; 2.; 3. ]);
        check
          (Alcotest.option (Alcotest.float 1e-9))
          "empty is None" None (Stat.mean_opt []));
    tc "reduction" (fun () ->
        check (Alcotest.float 1e-6) "95 to 16" 83.15789473684211
          (Stat.reduction_percent 95. 16.);
        check (Alcotest.float 1e-9) "zero" 0. (Stat.reduction_percent 0. 5.));
    tc "reduction robust" (fun () ->
        (* after > before is a slowdown: negative but meaningful. *)
        check (Alcotest.float 1e-9) "slowdown" (-50.)
          (Stat.reduction_percent 2. 3.);
        check (Alcotest.float 1e-9) "negative before" 0.
          (Stat.reduction_percent (-1.) 3.);
        check (Alcotest.float 1e-9) "nan before" 0.
          (Stat.reduction_percent Float.nan 3.);
        check (Alcotest.float 1e-9) "nan after" 0.
          (Stat.reduction_percent 3. Float.nan);
        check Alcotest.bool "always finite" true
          (Float.is_finite (Stat.reduction_percent 1e-300 1e300)));
    tc "formatting" (fun () ->
        check Alcotest.string "f1" "67.5" (Stat.fmt_f1 67.5);
        check Alcotest.string "f2" "62.52" (Stat.fmt_f2 62.52);
        check Alcotest.string "time" "1.204" (Stat.fmt_time_s 1.2041));
    tc "finite drops nan and infinities in order" (fun () ->
        check
          (Alcotest.list (Alcotest.float 1e-9))
          "filtered" [ 1.; 2. ]
          (Stat.finite [ Float.nan; 1.; Float.infinity; 2.; Float.neg_infinity ]);
        check (Alcotest.list (Alcotest.float 1e-9)) "empty" [] (Stat.finite []));
    tc "percentile nearest-rank boundaries" (fun () ->
        let xs = [ 10.; 20.; 30.; 40. ] in
        (* rank = ceil (q*n): exactly on a rank boundary selects that
           sample; epsilon past it selects the next. *)
        check (Alcotest.float 1e-9) "q=0" 10. (Stat.percentile 0. xs);
        check (Alcotest.float 1e-9) "q=0.25" 10. (Stat.percentile 0.25 xs);
        check (Alcotest.float 1e-9) "q just past 0.25" 20.
          (Stat.percentile 0.2500001 xs);
        check (Alcotest.float 1e-9) "median of even n" 20.
          (Stat.percentile 0.5 xs);
        check (Alcotest.float 1e-9) "q=0.75" 30. (Stat.percentile 0.75 xs);
        check (Alcotest.float 1e-9) "q=1" 40. (Stat.percentile 1. xs);
        check (Alcotest.float 1e-9) "q clamped above" 40.
          (Stat.percentile 2.5 xs);
        check (Alcotest.float 1e-9) "q clamped below" 10.
          (Stat.percentile (-1.) xs));
    tc "percentile degenerate inputs" (fun () ->
        check (Alcotest.float 1e-9) "empty" 0. (Stat.percentile 0.5 []);
        check (Alcotest.float 1e-9) "single" 5. (Stat.percentile 0.99 [ 5. ]);
        check
          (Alcotest.option (Alcotest.float 1e-9))
          "all non-finite is None" None
          (Stat.percentile_opt 0.5 [ Float.nan; Float.infinity ]);
        (* Non-finite samples are dropped before ranking, so a stray
           nan cannot shift the percentile. *)
        check (Alcotest.float 1e-9) "nan dropped before ranking" 3.
          (Stat.percentile 1. [ Float.nan; 3.; 1. ]));
  ]

(* ------------------------------------------------------------------ *)
(* Json_read                                                           *)

let json_read_cases =
  [
    tc "parse_json structure and escapes" (fun () ->
        let j =
          Json_read.parse_json
            {|{"a":[1,true,null,"s\n\"q\""],"b":{"c":-2.5e1},"d":""}|}
        in
        (match Json_read.member "a" j with
        | Some
            (Json_read.Arr
              [ Json_read.Num n; Json_read.Bool true; Json_read.Null;
                Json_read.Str s ]) ->
          check (Alcotest.float 1e-9) "num" 1. n;
          check Alcotest.string "escapes" "s\n\"q\"" s
        | _ -> Alcotest.fail "array shape");
        (match Json_read.member "b" j with
        | Some b ->
          (match Json_read.member "c" b with
          | Some (Json_read.Num n) -> check (Alcotest.float 1e-9) "exp" (-25.) n
          | _ -> Alcotest.fail "nested num")
        | None -> Alcotest.fail "nested obj");
        check Alcotest.bool "member miss is None" true
          (Json_read.member "zzz" j = None));
    tc "parse_json rejects malformed input" (fun () ->
        let rejects s =
          match Json_read.parse_json s with
          | _ -> Alcotest.failf "accepted %S" s
          | exception Json_read.Parse_error _ -> ()
        in
        rejects "{";
        rejects "[1,]";
        rejects {|{"a":1} trailing|};
        rejects "tru";
        rejects "");
  ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let pool_cases =
  [
    tc "map preserves order at jobs=1" (fun () ->
        Pool.with_pool ~jobs:1 @@ fun p ->
        check
          (Alcotest.list Alcotest.int)
          "squares" [ 1; 4; 9; 16 ]
          (Pool.map p (fun x -> x * x) [ 1; 2; 3; 4 ]));
    tc "map preserves order on 4 domains" (fun () ->
        Pool.with_pool ~jobs:4 @@ fun p ->
        let xs = List.init 100 Fun.id in
        check
          (Alcotest.list Alcotest.int)
          "order"
          (List.map (fun x -> x * 3) xs)
          (Pool.map p (fun x -> x * 3) xs));
    tc "parallel result equals sequential" (fun () ->
        let f x = (x * 7919) mod 101 in
        let xs = List.init 257 Fun.id in
        let seq = Pool.with_pool ~jobs:1 (fun p -> Pool.map p f xs) in
        let par = Pool.with_pool ~jobs:4 (fun p -> Pool.map p f xs) in
        check (Alcotest.list Alcotest.int) "identical" seq par);
    tc "empty and singleton batches" (fun () ->
        Pool.with_pool ~jobs:4 @@ fun p ->
        check (Alcotest.list Alcotest.int) "empty" []
          (Pool.map p (fun x -> x) []);
        check (Alcotest.list Alcotest.int) "one" [ 8 ]
          (Pool.map p (fun x -> 2 * x) [ 4 ]));
    tc "pool is reusable across batches" (fun () ->
        Pool.with_pool ~jobs:4 @@ fun p ->
        for i = 1 to 10 do
          check (Alcotest.list Alcotest.int) "batch"
            [ i; i + 1 ]
            (Pool.map p (fun x -> x + i) [ 0; 1 ])
        done);
    tc "map_reduce folds in input order" (fun () ->
        Pool.with_pool ~jobs:4 @@ fun p ->
        let s =
          Pool.map_reduce p ~map:string_of_int
            ~fold:(fun acc x -> acc ^ x)
            ~init:"" [ 1; 2; 3; 4; 5 ]
        in
        check Alcotest.string "concat" "12345" s);
    tc "lowest-index exception is re-raised" (fun () ->
        Pool.with_pool ~jobs:4 @@ fun p ->
        match
          Pool.map p
            (fun x -> if x >= 3 then failwith (string_of_int x) else x)
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure msg ->
          check Alcotest.string "sequential-first failure" "3" msg);
    tc "pool survives a failed batch" (fun () ->
        Pool.with_pool ~jobs:4 @@ fun p ->
        (try ignore (Pool.map p (fun _ -> failwith "boom") [ 1; 2; 3 ])
         with Failure _ -> ());
        check (Alcotest.list Alcotest.int) "next batch ok" [ 2; 4 ]
          (Pool.map p (fun x -> 2 * x) [ 1; 2 ]));
    tc "tasks_executed counts per task at any jobs" (fun () ->
        let count jobs =
          Metrics.reset ();
          Pool.with_pool ~jobs (fun p ->
              ignore (Pool.map p Fun.id (List.init 10 Fun.id)));
          Metrics.get_counter "pool.tasks_executed"
        in
        check Alcotest.int "jobs=1" 10 (count 1);
        check Alcotest.int "jobs=4" 10 (count 4);
        Metrics.reset ());
    tc "default_jobs honours MM_JOBS" (fun () ->
        Unix.putenv "MM_JOBS" "3";
        check Alcotest.int "env wins" 3 (Pool.default_jobs ());
        Unix.putenv "MM_JOBS" "bogus";
        check Alcotest.int "bad value falls back"
          (Domain.recommended_domain_count ())
          (Pool.default_jobs ());
        Unix.putenv "MM_JOBS" "0";
        check Alcotest.int "non-positive falls back"
          (Domain.recommended_domain_count ())
          (Pool.default_jobs ());
        (* Empty string parses as no override. *)
        Unix.putenv "MM_JOBS" "");
  ]

let diag_cases =
  [
    tc "render_json escapes quote, backslash, newline and control bytes"
      (fun () ->
        let nasty = "q\"b\\n\n\001" in
        let d =
          Diag.make
            ~loc:(Diag.loc ~line:3 ~col:7 ("f" ^ nasty))
            Diag.Error ~code:("c" ^ nasty) ("m" ^ nasty)
        in
        check Alcotest.string "exact bytes"
          {|[{"severity":"error","code":"cq\"b\\n\n\u0001","file":"fq\"b\\n\n\u0001","line":3,"col":7,"message":"mq\"b\\n\n\u0001"}]|}
          (Diag.render_json [ d ]));
  ]

let () =
  Alcotest.run "mm_util"
    [
      "glob", glob_cases @ glob_props;
      "toler", toler_cases @ toler_props;
      "prng", prng_cases @ prng_props;
      "vec", vec_cases;
      "tab", tab_cases;
      "stat", stat_cases;
      (* Group names stay within six characters: Alcotest pads every
         name to the longest, and the padding sets where long case
         names are cut in the report. *)
      "jsonrd", json_read_cases;
      "pool", pool_cases;
      "diag", diag_cases;
    ]
