(* The traced run of the hosted workloads: the same seeded writes
   replayed up a ladder of configurations, each timed from outside
   around its public call —

     1  bare Engine.set            (sink-free replica of each net)
     2  + Obs.Board.attach
     3  + ~monitor:true
     4  + Obs.Provenance.attach
     5  full Wstore.apply_set      (in-process store, journal fsync never)
     6  HTTP                       (the server process; hosted_small_nets)

   — so each rung's difference from the one below is one layer's cost.
   Rungs run in blocks of the same operations, the block order
   alternating, so drift in the machine lands on every rung alike.
   Engine counters, [Editor.find_var], [Journal.append], [Wstore.state],
   [Wstore.snapshot] and [why] are timed directly.  A short untraced
   timed phase on the top rung's nets then gives the end-to-end
   [write_p50_us] that the measured parts of a write must add up to. *)

open Constraint_kernel
module W = Serve.Wstore
module H = Hosted

(* The ladder's rungs must reproduce the untraced write median within
   this share of it. *)
let tolerance = 0.35

(* ---------------- in-process replicas ---------------- *)

type replica = { r_net : Dval.t Types.network; r_vars : (string, Dval.t Types.var) Hashtbl.t }

(* Build a net from its spec, attach the rung's sinks, then enter the
   initial values — the order [Wstore.create] uses. *)
let replica ~suffix ~attach (hn : Hgen.net) =
  let net, inits = W.build_spec ~id:(hn.Hgen.id ^ suffix) hn.Hgen.spec in
  Engine.set_step_budget net (Some Serve.Admission.default_config.Serve.Admission.ac_step_budget);
  attach net;
  let vars = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace vars (Var.path v) v) net.Types.net_vars;
  List.iter
    (fun (path, value) ->
      if Result.is_error (Engine.set ~just:Types.Application net (Hashtbl.find vars path) value) then
        Util.mismatch "%s: replica initial set %s rejected" hn.Hgen.id path)
    inits;
  { r_net = net; r_vars = vars }

type rung = {
  name : string;
  enter : unit -> unit;  (* called before each of the rung's blocks *)
  per_set : Util.samples;  (* µs per set (in-process rungs) *)
  per_write : Util.samples;  (* µs per write op (a batch for small nets) *)
  mutable words : float;  (* Σ words over the sets *)
  mutable sets : int;
  mutable exec : H.op -> unit;  (* run (and check) one write op, recording *)
}

let rung ?(enter = ignore) name f =
  let r = { name; enter; per_set = Util.samples (); per_write = Util.samples (); words = 0.0; sets = 0; exec = ignore } in
  r.exec <- f r;
  r

(* A rung whose nets are replicas: one timed [Engine.set] per item. *)
let replica_rung name reps =
  rung name (fun r op ->
      match op with
      | H.Set { net; items; _ } ->
        let rep = Hashtbl.find reps net.Hgen.id in
        let total = ref 0.0 in
        Array.iter
          (fun (leaf, v, ok) ->
            let var = Hashtbl.find rep.r_vars net.Hgen.paths.(leaf) in
            let res, us, w =
              Util.measure (fun () -> Engine.set ~just:Types.User rep.r_net var (Dval.Int v))
            in
            if Result.is_ok res <> ok then
              Util.mismatch "%s: rung %s set %s ok=%b, model says %b" net.Hgen.id name
                net.Hgen.paths.(leaf) (Result.is_ok res) ok;
            Util.push r.per_set us;
            total := !total +. us;
            r.words <- r.words +. w;
            r.sets <- r.sets + 1)
          items;
        Util.push r.per_write !total
      | _ -> ())

(* Rung 5: the store itself, one timed [Wstore.apply_set] per item;
   counts the snapshots the policy takes along the way. *)
let store_rung snapshots =
  rung "wstore" (fun r op ->
      match op with
      | H.Set { net; items; acked; _ } ->
        let e = H.entry_of net in
        let total = ref 0.0 in
        Array.iter
          (fun (leaf, v, ok) ->
            let size () = Option.fold ~none:0 ~some:Serve.Journal.size (W.journal e) in
            let before = size () in
            let res, us, w =
              Util.measure (fun () ->
                  W.apply_set e ~path:net.Hgen.paths.(leaf) ~value:(Dval.Int v) ~just:Types.User)
            in
            if size () < before then incr snapshots;
            if Result.is_ok res <> ok then
              Util.mismatch "%s: store set ok=%b, model says %b" net.Hgen.id (Result.is_ok res) ok;
            Util.push r.per_set us;
            total := !total +. us;
            r.words <- r.words +. w;
            r.sets <- r.sets + 1)
          items;
        if W.acked e <> acked then Util.mismatch "%s: store acked %d, model %d" net.Hgen.id (W.acked e) acked;
        Util.push r.per_write !total
      | _ -> ())

(* Rung 6: one timed HTTP round trip per batch. *)
let http_rung ?enter name client =
  rung ?enter name (fun r op ->
      let t0 = Util.now_ns () in
      let answer = H.exec_http client op in
      Util.push r.per_write (Util.us_of_ns (Util.now_ns () - t0));
      H.check_http op answer)

(* Run [ops] through every rung in blocks of [block], alternating the
   rung order from block to block. *)
let climb rungs ops ~block =
  let rungs = Array.of_list rungs in
  let n = Array.length ops in
  let b = ref 0 in
  while !b * block < n do
    let lo = !b * block in
    let hi = min n (lo + block) in
    let order = if !b mod 2 = 0 then rungs else Array.of_list (List.rev (Array.to_list rungs)) in
    Array.iter
      (fun r ->
        r.enter ();
        for i = lo to hi - 1 do
          r.exec ops.(i)
        done)
      order;
    incr b
  done

let med s = Util.quantile s 0.5

(* ---------------- direct timings ---------------- *)

(* Time (µs) and allocation (words) of [f] on each of [xs]: the
   median or the mean time, and the mean words. *)
let time_calls ~stat f xs =
  let t = Util.samples () and w = Util.samples () in
  List.iter
    (fun x ->
      let _, us, words = Util.measure (fun () -> f x) in
      Util.push t us;
      Util.push w words)
    xs;
  ((match stat with `Median -> med t | `Mean -> Util.mean t), Util.mean w)

let time_median f xs = time_calls ~stat:`Median f xs

(* Per-set parts are means: they add up to a batch, and a layer's
   garbage is paid in the collections that land on a few of its sets. *)
let time_mean f xs = time_calls ~stat:`Mean f xs

let set_record path v =
  Printf.sprintf "{\"v\":%d,\"t\":\"wal_set\",\"var\":\"%s\",\"value\":\"%d\",\"just\":\"user\"}"
    Obs.Jsonl.schema_version path v

let stats_sum reps =
  Hashtbl.fold
    (fun _ rep (inf, wak, chk, push) ->
      let st = Engine.stats rep.r_net in
      let pushed =
        List.fold_left (fun a (_, t) -> a + t.Types.at_pushed) 0 (Engine.agenda_totals rep.r_net)
      in
      (inf + st.Types.st_inferences, wak + st.Types.st_wakeups, chk + st.Types.st_checks, push + pushed))
    reps (0, 0, 0, 0)

(* A stage histogram's mean (µs) from the /metrics exposition. *)
let stage_mean body stage =
  let value suffix =
    List.fold_left
      (fun acc line ->
        match Util.find line ("serve_stage_" ^ stage ^ suffix ^ " ") with
        | Some _ when line.[0] <> '#' -> (
          match String.rindex_opt line ' ' with
          | Some i -> acc +. float_of_string (String.sub line (i + 1) (String.length line - i - 1))
          | None -> acc)
        | _ -> acc)
      0.0 (String.split_on_char '\n' body)
  in
  let count = value "_count" in
  if count > 0.0 then value "_sum" /. count else 0.0

(* ---------------- the run ---------------- *)

let zero_app_metrics =
  [
    Util.metric "delay.query_us" "us" 0.0;
    Util.metric "delay.critical_path_us" "us" 0.0;
    Util.metric "select.select_us" "us" 0.0;
    Util.metric "select.candidates_tested" "count" 0.0;
    Util.metric "select.subtrees_pruned" "count" 0.0;
  ]

(* Enforced on full-size runs only: a tiny run's few hundred HTTP
   samples cannot pin a median to the tolerance. *)
let consistency ~enforce ~ladder_us ~untraced_us =
  let residual = 100.0 *. (ladder_us -. untraced_us) /. untraced_us in
  Util.note "ladder: parts add up to %.1f us, untraced write_p50_us %.1f us, residual %+.1f%% (tolerance +-%.0f%%%s)"
    ladder_us untraced_us residual (100.0 *. tolerance) (if enforce then "" else ", not enforced on tiny inputs");
  if enforce && Float.abs residual > 100.0 *. tolerance then
    Util.mismatch "ladder consistency: residual %+.1f%% exceeds +-%.0f%%" residual (100.0 *. tolerance);
  Util.metric "ladder.residual_pct" "%" residual

let run ~seed ~seconds ~data ~tiny ~small =
  let cfg = if small then H.small_config ~tiny else H.large_config ~tiny in
  let ladder_ops = if tiny then 400 else if small then 1500 else 4000 in
  (* blocks on a 10^4-variable net are long enough that a block's first,
     cache-cold lookups do not set its median *)
  let block = if small then 25 else 200 in
  (* 1. nets from the seed, identical on every rung *)
  let rng = Random.State.make [| seed; 7 |] in
  let nets = if small then H.small_nets ~prefix:"lad" rng cfg else H.large_nets rng cfg ~rep:9 in
  let reps suffix attach =
    let h = Hashtbl.create 64 in
    Array.iter (fun (n : Hgen.net) -> Hashtbl.replace h n.Hgen.id (replica ~suffix ~attach n)) nets;
    h
  in
  let r1 = reps "_bare" ignore in
  let r2 = reps "_board" (fun net -> ignore (Obs.Board.attach net)) in
  let r3 = reps "_monitor" (fun net -> ignore (Obs.Board.attach ~monitor:true net)) in
  let provs = ref [] in
  let r4 =
    reps "_prov" (fun net ->
        ignore (Obs.Board.attach ~monitor:true net);
        provs := (net.Types.net_name, Obs.Provenance.attach ~pp_value:W.pp_value net) :: !provs)
  in
  let dir = Filename.concat data "ladder" in
  H.rm_rf dir;
  H.mkdir_p dir;
  W.configure ~dir ~fsync:Serve.Journal.Never ~snapshot_every:cfg.H.snapshot_every ();
  let create_times = Util.samples () in
  Array.iter
    (fun (n : Hgen.net) ->
      let r, us, _ = Util.measure (fun () -> W.create ~tenant:n.Hgen.tenant ~id:n.Hgen.id ~spec:n.Hgen.spec ()) in
      Util.push create_times (us /. 1e6);
      match r with Ok _ -> () | Error m -> Util.mismatch "%s: create failed: %s" n.Hgen.id m)
    nets;
  let srv =
    if small then begin
      let dir = Filename.concat data "ladder-served" in
      H.rm_rf dir;
      H.mkdir_p dir;
      Some (H.serve_nets ~dir cfg nets)
    end
    else None
  in
  let snapshots = ref 0 in
  let rungs =
    [ replica_rung "bare" r1; replica_rung "board" r2; replica_rung "monitor" r3; replica_rung "provenance" r4;
      store_rung snapshots ]
    @ (match srv with
      | Some s -> [ http_rung "http" s.H.client ]
      | None -> [])
  in
  (* warm every rung past the provenance episode window *)
  let warm = ref [] in
  Array.iter
    (fun (n : Hgen.net) ->
      while n.Hgen.episodes < cfg.H.warm_episodes do
        warm := H.gen_set rng cfg.H.mix n :: !warm
      done)
    nets;
  List.iter (fun op -> List.iter (fun r -> r.exec op) rungs) (List.rev !warm);
  List.iter (fun r -> r.per_set.Util.len <- 0; r.per_write.Util.len <- 0; r.words <- 0.0; r.sets <- 0) rungs;
  snapshots := 0;
  let write_mix = { cfg.H.mix with H.write_pct = 100 } in
  let ops = H.gen_round rng write_mix nets ~ops:ladder_ops in
  let inf0, wak0, chk0, push0 = stats_sum r1 in
  climb rungs ops ~block;
  let inf1, wak1, chk1, push1 = stats_sum r1 in
  (* why on the targets the timed phase would pick (roots changed in
     the last few episodes), each answer checked; done before the traced
     HTTP batches below move the model past the replicas *)
  let why_targets =
    List.concat_map
      (fun (n : Hgen.net) ->
        let prov = List.assoc (n.Hgen.id ^ "_prov") !provs in
        List.map (fun r -> (n, prov, r)) (Hgen.why_candidates n))
      (Array.to_list nets)
  in
  List.iter
    (fun ((n : Hgen.net), prov, r) ->
      H.check_why n r n.Hgen.vals.(r) ~head:(H.why_head prov n.Hgen.paths.(r)))
    why_targets;
  let why_us, _ =
    time_median
      (fun ((n : Hgen.net), prov, r) -> Obs.Provenance.why prov n.Hgen.paths.(r))
      (List.concat_map (fun x -> List.init (max 1 (400 / max 1 (List.length why_targets))) (fun _ -> x)) why_targets)
  in
  (* the traced HTTP rung: the same batch shapes with request tracing on *)
  let parse_us, admit_us, tracing_us, overhead_us =
    match srv with
    | None -> (0.0, 0.0, 0.0, 0.0)
    | Some s ->
      (* request tracing is server-wide: alternate blocks of fresh
         batches between tracing off and on, each batch sent once.
         After each traced block the server reports its own handling
         of every request in it; the client's round trip minus that is
         the HTTP round-trip overhead.  A server thread reads the
         tracing flag before it blocks for the next request, so one
         untimed read after each switch lets the switch reach the
         batches that follow. *)
      let set_tracing on =
        ignore (H.command s.H.srv (if on then "trace on" else "trace off"));
        ignore (H.exec_http s.H.client (H.State { net = nets.(0) }))
      in
      let off = http_rung "http" s.H.client and on = http_rung "http+tracing" s.H.client in
      let overhead = Util.samples () in
      let more = H.gen_round rng write_mix nets ~ops:ladder_ops in
      let nblocks = (Array.length more + block - 1) / block in
      for b = 0 to nblocks - 1 do
        let lo = b * block and hi = min (Array.length more) ((b + 1) * block) in
        let traced = b mod 2 = 1 in
        set_tracing traced;
        let r = if traced then on else off in
        let first = r.per_write.Util.len in
        for i = lo to hi - 1 do
          r.exec more.(i)
        done;
        if traced then begin
          let handled =
            match String.split_on_char ' ' (H.command s.H.srv (Printf.sprintf "handling %d" (hi - lo))) with
            | "handling" :: xs -> List.map float_of_string xs
            | _ -> []
          in
          if List.length handled <> hi - lo || List.exists Float.is_nan handled then
            Util.mismatch "server reported its handling of %d requests (some unmatched), %d were sent"
              (List.length handled) (hi - lo)
          else List.iteri (fun k h -> Util.push overhead (r.per_write.Util.data.(first + k) -. h)) handled
        end
      done;
      let metrics_body =
        match Serve.Client.get ~port:s.H.srv.H.port "/metrics" with
        | Ok r -> r.Serve.Client.rs_body
        | Error m ->
          Util.mismatch "GET /metrics failed: %s" m;
          ""
      in
      set_tracing false;
      ( stage_mean metrics_body "parse",
        stage_mean metrics_body "admit",
        med on.per_write -. med off.per_write,
        med overhead )
  in
  let sets = float_of_int (List.hd rungs).sets in
  let by name = List.find (fun r -> r.name = name) rungs in
  let ps name = Util.mean (by name).per_set in
  let pw name = med (by name).per_write in
  let words name = (by name).words /. float_of_int (by name).sets in
  (* 3. direct timings *)
  let sample_items =
    Array.to_list ops
    |> List.concat_map (function H.Set { net; items; _ } -> List.map (fun (l, v, _) -> (net, l, v)) (Array.to_list items) | _ -> [])
  in
  let sample_items = List.filteri (fun i _ -> i < 1000) sample_items in
  let find_us, find_words =
    time_mean
      (fun ((net : Hgen.net), leaf, _) ->
        Editor.find_var (Hashtbl.find r1 net.Hgen.id).r_net net.Hgen.paths.(leaf))
      sample_items
  in
  let probe_us, _ =
    time_median
      (fun ((net : Hgen.net), leaf, v) ->
        let rep = Hashtbl.find r1 net.Hgen.id in
        Engine.can_be_set_to rep.r_net (Hashtbl.find rep.r_vars net.Hgen.paths.(leaf)) (Dval.Int v))
      sample_items
  in
  let jpath = Filename.concat dir "scratch.jnl" in
  let j, _ = Serve.Journal.open_append ~fsync:Serve.Journal.Never jpath in
  let append_us, _ =
    time_mean
      (fun ((net : Hgen.net), leaf, v) -> Serve.Journal.append j (set_record net.Hgen.paths.(leaf) v))
      sample_items
  in
  let bytes_per_set = float_of_int (Serve.Journal.size j) /. float_of_int (Serve.Journal.appended j) in
  Serve.Journal.close j;
  let entries = Array.to_list (Array.map H.entry_of nets) in
  let few = List.filteri (fun i _ -> i < 16) entries in
  let rep k l = List.concat_map (fun x -> List.init k (fun _ -> x)) l in
  let state_us, _ = time_median W.state (rep (if small then 8 else 5) few) in
  let snapshot_us, _ = time_median (fun e -> W.with_episode_lock (fun () -> W.snapshot e)) (rep 3 few) in
  (* 4. a third-length untraced end-to-end phase on the top rung's own
     nets, in the same process and heap as the ladder: the served nets
     over HTTP, or the in-process store *)
  List.iter Hashtbl.reset [ r1; r2; r3; r4 ];
  provs := [];
  let p =
    match srv with
    | Some s -> H.small_phase s cfg rng ~seconds:(seconds /. 3.0)
    | None -> H.large_phase nets cfg rng ~seconds:(seconds /. 3.0)
  in
  let kop = float_of_int p.H.tm.H.ops /. 1000.0 in
  (* 5. consistency: each write's parts — its sets on the provenance
     rung (engine + board + monitor + provenance sinks, whose per-set
     means above are these times over the sets), the store's own
     [find_var] and journal append per set, each timed apart from
     [Wstore.apply_set], and a request's admission and HTTP round-trip
     overhead — against the untraced write median.  A cost of the write
     path outside these parts (routing, rendering the reply, anything
     [apply_set] or the server adds) shows as a negative residual. *)
  let prov = by "provenance" in
  let est = Util.samples () in
  Array.iteri
    (fun i op ->
      match op with
      | H.Set { items; _ } ->
        Util.push est
          (prov.per_write.Util.data.(i)
          +. (float_of_int (Array.length items) *. (find_us +. append_us))
          +. admit_us +. overhead_us)
      | _ -> ())
    ops;
  let ladder_us = med est in
  Util.note "ladder parts per write: %.1f provenance rung + %.1f sets (mean) x (%.1f find_var + %.1f append) + %.1f admit + %.1f http overhead"
    (pw "provenance") (float_of_int prov.sets /. float_of_int prov.per_write.Util.len)
    find_us append_us admit_us overhead_us;
  List.iter
    (fun r -> Util.note "rung %-10s %9.2f us/write %8.2f us/set %9.0f words/set" r.name (pw r.name)
        (if r.per_set.Util.len > 0 then ps r.name else nan) (if r.sets > 0 then words r.name else nan))
    rungs;
  let consistency_metric =
    consistency ~enforce:(not tiny) ~ladder_us ~untraced_us:(Util.quantile p.H.tm.H.writes 0.5)
  in
  let per x = x /. sets in
  (match srv with Some s -> H.close_small s | None -> ());
  ignore (W.close_all ());
  let attempted = p.H.tm.H.ops + (Array.length ops * List.length rungs) in
  let metrics =
    [
      Util.metric "engine.set_us" "us" (ps "bare");
      Util.metric "engine.words_per_set" "words" (words "bare");
      Util.metric "engine.inferences_per_set" "count" (per (float_of_int (inf1 - inf0)));
      Util.metric "engine.wakeups_per_set" "count" (per (float_of_int (wak1 - wak0)));
      Util.metric "engine.checks_per_set" "count" (per (float_of_int (chk1 - chk0)));
      Util.metric "agenda.pushes_per_set" "count" (per (float_of_int (push1 - push0)));
      Util.metric "engine.probe_us" "us" probe_us;
      Util.metric "editor.find_var_us" "us" find_us;
      Util.metric "editor.find_var_words" "words" find_words;
      Util.metric "board.us_per_set" "us" (ps "board" -. ps "bare");
      Util.metric "monitor.us_per_set" "us" (ps "monitor" -. ps "board");
      Util.metric "provenance.us_per_set" "us" (ps "provenance" -. ps "monitor");
      Util.metric "provenance.words_per_set" "words" (words "provenance" -. words "monitor");
      Util.metric "provenance.why_us" "us" why_us;
      Util.metric "tracing.overhead_us_per_request" "us" tracing_us;
      Util.metric "wstore.apply_set_us" "us" (ps "wstore");
      Util.metric "journal.append_us" "us" append_us;
      Util.metric "journal.bytes_per_set" "bytes" bytes_per_set;
      Util.metric "wstore.snapshot_us" "us" snapshot_us;
      Util.metric "wstore.snapshots_per_kset" "count" (1000.0 *. float_of_int !snapshots /. sets);
      Util.metric "wstore.state_us" "us" state_us;
      Util.metric "wstore.create_s" "s" (med create_times);
      Util.metric "http.parse_us" "us" parse_us;
      Util.metric "admission.admit_us" "us" admit_us;
      Util.metric "http.roundtrip_overhead_us" "us" overhead_us;
    ]
    @ zero_app_metrics
    @ [
        Util.metric "gc.minor_collections_per_kop" "1/kop" (float_of_int p.H.minor /. kop);
        Util.metric "gc.major_collections_per_kop" "1/kop" (float_of_int p.H.major /. kop);
        consistency_metric;
      ]
  in
  (attempted, metrics)
