(* The served workload's server process: the write API of [Serve] and
   nothing else — no demo rounds, no history, no exposed demo nets —
   over a durable [Wstore] whose journal never fsyncs.

   Usage: server.exe DATA_DIR SNAPSHOT_EVERY
   Prints "port N" once listening, then answers one command per stdin
   line:
     gc         -> "gc ALLOC_WORDS MINOR_GCS MAJOR_GCS PEAK_RSS_MB"
     trace on   -> request tracing on  ("ok")
     trace off  -> request tracing off ("ok")
     handling N -> "handling H1 .. HN": for the N set requests traced
                   since the last such command, oldest first, the
                   server's own handling of each in microseconds (see
                   [handling]); then clears the trace ring
     close      -> stop serving, drain every net (final snapshot,
                   journal closed), print "closed" and exit
   End of input is [close]. *)

(* The server's handling of each traced set request, oldest first: from
   the end of its parse span to the end of its last stage span
   (admission, episodes, journal appends).  Routing and rendering the
   reply are left out with the parse, whose start precedes the blocking
   read; so is writing the reply, after which the client may run on
   this CPU before the root span closes.  Waits up to a second for the
   last roots, recorded after their reply is written. *)
let handling n =
  let open Obs.Tracing in
  let is_set sp = sp.sp_parent = 0 && String.ends_with ~suffix:"/set" sp.sp_name in
  let rec wait k =
    let spans = spans Serve.tracer in
    if List.length (List.filter is_set spans) >= n || k = 0 then spans
    else begin
      Thread.delay 0.001;
      wait (k - 1)
    end
  in
  let spans = wait 1000 in
  let parse_end = Hashtbl.create 64 and last_end = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let stop = sp.sp_start +. sp.sp_dur in
      if sp.sp_name = "parse" then Hashtbl.replace parse_end sp.sp_trace stop
      else if sp.sp_parent <> 0 then
        match Hashtbl.find_opt last_end sp.sp_trace with
        | Some t when t >= stop -> ()
        | _ -> Hashtbl.replace last_end sp.sp_trace stop)
    spans;
  let roots = List.sort (fun a b -> compare a.sp_start b.sp_start) (List.filter is_set spans) in
  clear Serve.tracer;
  List.map
    (fun sp ->
      match (Hashtbl.find_opt parse_end sp.sp_trace, Hashtbl.find_opt last_end sp.sp_trace) with
      | Some a, Some b -> 1e6 *. (b -. a)
      | _ -> nan)
    roots

let () =
  let dir, every =
    match Sys.argv with
    | [| _; dir; every |] -> (dir, int_of_string every)
    | _ ->
      prerr_endline "usage: server.exe DATA_DIR SNAPSHOT_EVERY";
      exit 2
  in
  Serve.Wstore.configure ~dir ~fsync:Serve.Journal.Never ~snapshot_every:every ();
  let sv = Serve.start ~port:0 ~workers:2 () in
  Printf.printf "port %d\n%!" (Serve.port sv);
  let close () =
    Serve.stop sv;
    ignore (Serve.Wstore.close_all ());
    Printf.printf "closed\n%!";
    exit 0
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> close ()
    | "gc" ->
      let minor, major = Util.gc_collections () in
      Printf.printf "gc %.0f %d %d %.3f\n%!" (Util.alloc_words ()) minor major
        (Util.peak_rss_mb ());
      loop ()
    | "trace on" ->
      Serve.set_tracing true;
      Printf.printf "ok\n%!";
      loop ()
    | "trace off" ->
      Serve.set_tracing false;
      Printf.printf "ok\n%!";
      loop ()
    | cmd when String.starts_with ~prefix:"handling " cmd ->
      let n = int_of_string (String.sub cmd 9 (String.length cmd - 9)) in
      Printf.printf "handling%s\n%!"
        (String.concat "" (List.map (Printf.sprintf " %.3f") (handling n)));
      loop ()
    | "close" -> close ()
    | cmd ->
      Printf.printf "error unknown command %s\n%!" cmd;
      loop ()
  in
  loop ()
