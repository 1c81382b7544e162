(* The benchmark harness.  See README.md.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             [--data DIR] [--tiny]

   Prints progress on stderr and, as its last stdout line, one JSON
   object: correct, attempted, failed, metrics. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let data = ref (Filename.concat ".bench_build" "stembench-data") and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hosted_small_nets | hosted_large_net | design_session");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or per-layer ladder run (1)");
      ("--data", Arg.Set_string data, "DIR scratch directory for journals and snapshots");
      ("--tiny", Arg.Set tiny, " tiny inputs: exercise the harness and every oracle in seconds");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let data = Filename.concat !data (string_of_int (Unix.getpid ())) in
  let seed = !seed and seconds = !seconds and tiny = !tiny in
  let ops, metrics =
    match (!workload, !trace) with
    | "hosted_small_nets", 0 ->
      let tm, m = Hosted.small_timed ~seed ~seconds ~data ~tiny in
      (tm.Hosted.ops, m)
    | "hosted_large_net", 0 ->
      let tm, m = Hosted.large_timed ~seed ~seconds ~data ~tiny in
      (tm.Hosted.ops, m)
    | "design_session", 0 ->
      let tm, m = Design.timed_run ~seed ~seconds ~tiny in
      (tm.Hosted.ops, m)
    | "hosted_small_nets", 1 -> Ladder.run ~seed ~seconds ~data ~tiny ~small:true
    | "hosted_large_net", 1 -> Ladder.run ~seed ~seconds ~data ~tiny ~small:false
    | "design_session", 1 -> Design.trace_run ~seed ~seconds ~tiny
    | w, t ->
      Printf.eprintf "unknown workload %S or trace %d\n" w t;
      exit 2
  in
  Hosted.rm_rf data;
  let correct = !Util.mismatches = 0 in
  print_endline (Util.result_line ~correct ~attempted:ops ~failed:!Util.failed metrics)
