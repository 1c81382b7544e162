(* The two hosted workloads: [hosted_small_nets] (HTTP to a server
   process over one keep-alive connection) and [hosted_large_net]
   ([Wstore] called in-process).  Both replay generated operations
   against the store and compare every answer with the [Hgen] model. *)

open Constraint_kernel
module W = Serve.Wstore

(* ---------------- operations ---------------- *)

type op =
  | Set of {
      net : Hgen.net;
      items : (int * int * bool) array;  (* leaf, value, predicted commit *)
      acked : int;  (* predicted [acked] after the batch *)
      body : string;  (* the NDJSON batch *)
    }
  | Why of { net : Hgen.net; var : int; value : int }
  | State of { net : Hgen.net }  (* checked against the model when answered *)

let is_write = function Set _ -> true | Why _ | State _ -> false

let kind = function Set _ -> "set" | Why _ -> "why" | State _ -> "state"

let item_line (net : Hgen.net) (leaf, v, _) =
  Printf.sprintf "{\"var\":\"%s\",\"value\":\"%d\",\"just\":\"user\"}"
    net.Hgen.paths.(leaf) v

(* Mix of a workload's generated traffic. *)
type mix = {
  max_batch : int;  (* set batches are 1..max_batch items *)
  viol_pct : int;  (* items generated to violate a check *)
  heads_pct : int;  (* items written at the head of an eq chain *)
  write_pct : int;
  why_pct : int;  (* the rest are full state reads *)
}

let gen_set rng mix (net : Hgen.net) =
  let k = 1 + Random.State.int rng mix.max_batch in
  let items =
    Array.init k (fun _ ->
        let leaf, v = Hgen.gen_item rng net ~viol_pct:mix.viol_pct ~heads_pct:mix.heads_pct in
        (leaf, v, Hgen.apply net leaf v))
  in
  Set
    {
      net;
      items;
      acked = net.Hgen.acked;
      body = String.concat "\n" (Array.to_list (Array.map (item_line net) items));
    }

let gen_op rng mix nets =
  let net = nets.(Random.State.int rng (Array.length nets)) in
  let r = Random.State.int rng 100 in
  if r < mix.write_pct then gen_set rng mix net
  else if r < mix.write_pct + mix.why_pct then
    match Hgen.why_target rng net with
    | Some var -> Why { net; var; value = net.Hgen.vals.(var) }
    | None -> State { net }
  else State { net }

let gen_round rng mix nets ~ops = Array.init ops (fun _ -> gen_op rng mix nets)

(* ---------------- checking answers ---------------- *)

let check_state (net : Hgen.net) vals rows =
  let seen = ref 0 in
  List.iter
    (fun (path, value) ->
      incr seen;
      match Hashtbl.find_opt net.Hgen.index path with
      | None -> Util.mismatch "%s: state lists unknown variable %s" net.Hgen.id path
      | Some i ->
        let want = string_of_int vals.(i) in
        if value <> Some want then
          Util.mismatch "%s: %s = %s, model says %s" net.Hgen.id path
            (Option.value value ~default:"nil") want)
    rows;
  if !seen <> Array.length vals then
    Util.mismatch "%s: state has %d variables, model %d" net.Hgen.id !seen (Array.length vals)

(* Every [why] target changed within the last few episodes, so its
   chain must be there: an empty answer is a mismatch. *)
let check_why (net : Hgen.net) var value ~head =
  match head with
  | None -> Util.mismatch "%s: why %s is empty" net.Hgen.id net.Hgen.paths.(var)
  | Some (span_var, span_value) ->
    let path = net.Hgen.paths.(var) in
    if span_var <> path || span_value <> Some (string_of_int value) then
      Util.mismatch "%s: why %s heads with %s = %s, model says %d" net.Hgen.id path span_var
        (Option.value span_value ~default:"nil") value

(* ---- HTTP answers (hand-scanned JSON: the shapes are fixed) ---- *)

(* The string after [key] (a JSON string value) at or after [from]. *)
let json_str body ~from key =
  match Util.find ~from body key with
  | None -> None
  | Some i ->
    let j = i + String.length key in
    if j < String.length body && body.[j] = '"' then
      let k = String.index_from body (j + 1) '"' in
      Some (String.sub body (j + 1) (k - j - 1), k)
    else None

let json_int body key =
  match Util.find body key with
  | None -> None
  | Some i ->
    let j = i + String.length key in
    let k = ref j in
    while !k < String.length body && (body.[!k] = '-' || (body.[!k] >= '0' && body.[!k] <= '9')) do
      incr k
    done;
    int_of_string_opt (String.sub body j (!k - j))

(* An item error that is not a check's verdict: the operation failed. *)
let failure_error msg =
  List.exists
    (fun p -> String.length msg >= String.length p && String.sub msg 0 (String.length p) = p)
    [ "unknown variable"; "unparseable value"; "bad justification"; "step budget exhausted" ]

let check_http op (status, body) =
  match op with
  | Set { net; _ } when status <> 200 && status <> 422 ->
    Util.fail "%s: set answered %d" net.Hgen.id status
  | Set { net; items; acked; _ } ->
    (* each item's "ok" and, when false, its "error" *)
    let pos = ref 0 in
    let got =
      Array.map
        (fun _ ->
          match Util.find ~from:!pos body "\"ok\":" with
          | None -> None
          | Some i ->
            pos := i + 5;
            if String.sub body (i + 5) 4 = "true" then Some (true, "")
            else Some (false, Option.fold ~none:"" ~some:fst (json_str body ~from:i "\"error\":")))
        items
    in
    (match Array.find_opt (function Some (false, msg) -> failure_error msg | _ -> false) got with
    | Some (Some (_, msg)) -> Util.fail "%s: set item failed: %s" net.Hgen.id msg
    | _ ->
      let all_ok = Array.for_all (fun (_, _, ok) -> ok) items in
      let want = if all_ok then 200 else 422 in
      if status <> want then Util.mismatch "%s: set status %d, model says %d" net.Hgen.id status want;
      Array.iteri
        (fun n (leaf, _, ok) ->
          match got.(n) with
          | None -> Util.mismatch "%s: set answer lacks item %d" net.Hgen.id n
          | Some (g, _) ->
            if g <> ok then
              Util.mismatch "%s: set %s item %d ok=%b, model says %b" net.Hgen.id
                net.Hgen.paths.(leaf) n g ok)
        items;
      (match json_int body "\"acked\":" with
      | Some a when a = acked -> ()
      | a ->
        Util.mismatch "%s: acked %s, model says %d" net.Hgen.id
          (Option.fold ~none:"?" ~some:string_of_int a) acked))
  | Why { net; _ } when status <> 200 -> Util.fail "%s: why answered %d" net.Hgen.id status
  | Why { net; var; value } -> (
      match Util.find body "\"span\":{" with
      | None -> check_why net var value ~head:None
      | Some i ->
        let head =
          match (json_str body ~from:i "\"var\":", json_str body ~from:i "\"value\":") with
          | Some (v, _), Some (x, _) -> Some (v, Some x)
          | Some (v, _), None -> Some (v, None)
          | None, _ -> Some ("?", None)
        in
        check_why net var value ~head)
  | State { net } when status <> 200 -> Util.fail "%s: state answered %d" net.Hgen.id status
  | State { net } ->
      let rows = ref [] and pos = ref 0 in
      let continue = ref true in
      while !continue do
        match json_str body ~from:!pos "{\"var\":" with
        | None -> continue := false
        | Some (path, k) ->
          let value = Option.map fst (json_str body ~from:k "\"value\":") in
          rows := (path, value) :: !rows;
          pos := k
      done;
      check_state net net.Hgen.vals !rows

(* ---- in-process answers ---- *)

let entry_of (net : Hgen.net) =
  match W.find ~id:net.Hgen.id with
  | Some e -> e
  | None -> failwith ("not hosted: " ^ net.Hgen.id)

let why_head prov path =
  match Obs.Provenance.why prov path with
  | [] -> None
  | st :: _ ->
    let sp = st.Obs.Provenance.ws_span in
    Some (sp.Obs.Provenance.sp_var, sp.Obs.Provenance.sp_value)

let state_rows e = List.map (fun (path, v, _) -> (path, v)) (W.state e)

(* ---------------- the server process ---------------- *)

type server = {
  pid : int;
  to_srv : out_channel;
  from_srv : in_channel;
  port : int;
}

let server_exe () = Filename.concat (Filename.dirname Sys.executable_name) "server.exe"

let start_server ~dir ~snapshot_every =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = server_exe () in
  let pid =
    Unix.create_process exe [| exe; dir; string_of_int snapshot_every |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let to_srv = Unix.out_channel_of_descr in_w and from_srv = Unix.in_channel_of_descr out_r in
  let port = Scanf.sscanf (input_line from_srv) "port %d" Fun.id in
  { pid; to_srv; from_srv; port }

let command s cmd =
  output_string s.to_srv (cmd ^ "\n");
  flush s.to_srv;
  input_line s.from_srv

(* Words allocated, minor and major collections, peak RSS (MB). *)
let server_gc s =
  Scanf.sscanf (command s "gc") "gc %f %d %d %f" (fun w mi ma rss -> (w, mi, ma, rss))

let stop_server s =
  (match command s "close" with
  | "closed" -> ()
  | line -> Util.note "server said %S on close" line);
  close_out_noerr s.to_srv;
  close_in_noerr s.from_srv;
  ignore (Unix.waitpid [] s.pid)

(* ---------------- data directories ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* ---------------- timed phase ---------------- *)

type timed = {
  writes : Util.samples;  (* µs per write request *)
  reads : Util.samples;
  mutable ops : int;
  mutable busy_us : float;  (* Σ of bracketed call times *)
  mutable words : float;  (* Σ allocated words inside the brackets *)
  kinds : (string, int ref * float ref) Hashtbl.t;  (* op kind -> count, Σ µs *)
}

let timed () =
  {
    writes = Util.samples ();
    reads = Util.samples ();
    ops = 0;
    busy_us = 0.0;
    words = 0.0;
    kinds = Hashtbl.create 8;
  }

let record_kind tm ~write ~kind us words =
  Util.push (if write then tm.writes else tm.reads) us;
  tm.ops <- tm.ops + 1;
  tm.busy_us <- tm.busy_us +. us;
  tm.words <- tm.words +. words;
  match Hashtbl.find_opt tm.kinds kind with
  | Some (n, t) ->
    incr n;
    t := !t +. us
  | None -> Hashtbl.replace tm.kinds kind (ref 1, ref us)

let record tm op us words = record_kind tm ~write:(is_write op) ~kind:(kind op) us words

(* An operation whose call raised: attempted and failed, no sample. *)
let record_failed tm e =
  tm.ops <- tm.ops + 1;
  Util.fail "%s" (Printexc.to_string e)

(* Closed loop: rounds of [round] operations, each generated just
   before it runs, until [seconds] of wall time have passed; whole
   rounds only.  The heap is compacted first, so garbage left by set-up
   is not collected in slices charged to timed operations. *)
let run_rounds ~seconds ~round ~gen ~exec =
  Gc.compact ();
  let tm = timed () in
  let t_end = Util.now_ns () + int_of_float (seconds *. 1e9) in
  while Util.now_ns () < t_end do
    for _ = 1 to round do
      exec tm (gen ())
    done
  done;
  tm

let end_to_end tm ~setup_s ~words_per_op ~rss_mb =
  (* each op kind's share of the operations and of the busy time *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tm.kinds []
  |> List.sort compare
  |> List.iter (fun (k, (n, t)) ->
         Util.note "mix: %-8s %5.1f%% of operations, %5.1f%% of busy time" k
           (100.0 *. float_of_int !n /. float_of_int tm.ops)
           (100.0 *. !t /. tm.busy_us));
  let q s p = Util.quantile s p in
  [
    Util.metric "setup_s" "s" setup_s;
    Util.metric "ops_per_s" "1/s" (float_of_int tm.ops /. (tm.busy_us /. 1e6));
    Util.metric "write_p50_us" "us" (q tm.writes 0.5);
    Util.metric "write_p99_us" "us" (q tm.writes 0.99);
    Util.metric "read_p50_us" "us" (q tm.reads 0.5);
    Util.metric "read_p99_us" "us" (q tm.reads 0.99);
    Util.metric "alloc_words_per_op" "words" words_per_op;
    Util.metric "peak_rss_mb" "MB" rss_mb;
  ]

(* ---------------- hosted_small_nets ---------------- *)

type config = {
  n_nets : int;
  tenants : int;
  min_vars : int;
  max_vars : int;
  mix : mix;
  round_ops : int;
  warm_episodes : int;  (* every net passes this many episodes before timing *)
  setups : int;  (* set-up repetitions; setup_s is their median *)
  snapshot_every : int;
}

let small_config ~tiny =
  {
    n_nets = (if tiny then 8 else 64);
    tenants = 4;
    min_vars = 10;
    max_vars = 40;
    mix = { max_batch = 16; viol_pct = 3; heads_pct = 0; write_pct = 70; why_pct = 20 };
    round_ops = (if tiny then 64 else 512);
    warm_episodes = (if tiny then 40 else 1100);
    setups = (if tiny then 2 else 7);
    snapshot_every = 4096;
  }

(* Net sizes sweep min_vars..max_vars in a fixed order. *)
let small_nets ?(prefix = "n") rng cfg =
  Array.init cfg.n_nets (fun i ->
      let n = cfg.min_vars + (i * 7 mod (cfg.max_vars - cfg.min_vars + 1)) in
      Hgen.small_net rng ~id:(Printf.sprintf "%s%02d" prefix i)
        ~tenant:(Printf.sprintf "t%d" (i mod cfg.tenants))
        ~n)

let exec_http client op =
  match op with
  | Set { net; body; _ } ->
    Hclient.request client ~meth:"POST" ~tenant:net.Hgen.tenant ~body
      ~path:("/nets/" ^ net.Hgen.id ^ "/set") ()
  | Why { net; var; _ } ->
    Hclient.request client ~meth:"POST" ~tenant:net.Hgen.tenant
      ~path:("/nets/" ^ net.Hgen.id ^ "/why?var=" ^ net.Hgen.paths.(var)) ()
  | State { net; _ } ->
    Hclient.request client ~meth:"GET" ~tenant:net.Hgen.tenant
      ~path:("/nets/" ^ net.Hgen.id ^ "/state") ()

let create_http client (net : Hgen.net) =
  let status, body =
    Hclient.request client ~meth:"POST" ~tenant:net.Hgen.tenant ~body:net.Hgen.spec
      ~path:("/nets?id=" ^ net.Hgen.id) ()
  in
  if status <> 201 then Util.mismatch "%s: create answered %d %s" net.Hgen.id status body

(* Writes only, until every net has run [warm_episodes] episodes. *)
let warm_http client rng cfg nets =
  Array.iter
    (fun (net : Hgen.net) ->
      while net.Hgen.episodes < cfg.warm_episodes do
        let op = gen_set rng cfg.mix net in
        check_http op (exec_http client op)
      done)
    nets

(* Closing the data dir and reopening it with [Wstore.recover] must
   give back the model's state. *)
let check_recovery ~dir nets =
  W.configure ~dir ~fsync:Serve.Journal.Never ();
  Array.iter
    (fun (net : Hgen.net) ->
      match W.recover ~dir ~id:net.Hgen.id () with
      | Error msg -> Util.mismatch "%s: recover failed: %s" net.Hgen.id msg
      | Ok r ->
        if r.W.rc_warnings <> [] then
          Util.mismatch "%s: recovery warned %d times" net.Hgen.id (List.length r.W.rc_warnings);
        check_state net net.Hgen.vals (state_rows r.W.rc_entry);
        ignore (W.drop ~id:net.Hgen.id))
    nets

type small_session = {
  srv : server;
  mutable client : Hclient.t;  (* replaced if a request raised *)
  nets : Hgen.net array;
  dir : string;
}

(* One set-up: a fresh server process and data dir, every net created
   over HTTP.  The nets (and their models) are regenerated from the
   same seed each time. *)
let serve_nets ~dir cfg nets =
  let srv = start_server ~dir ~snapshot_every:cfg.snapshot_every in
  let client = Hclient.connect srv.port in
  Array.iter (create_http client) nets;
  { srv; client; nets; dir }

let small_setup ~seed ~data cfg k =
  let rng = Random.State.make [| seed; 1 |] in
  let nets = small_nets rng cfg in
  let dir = Filename.concat data (Printf.sprintf "small-%d" k) in
  rm_rf dir;
  mkdir_p dir;
  let t0 = Util.now_ns () in
  let s = serve_nets ~dir cfg nets in
  (s, float_of_int (Util.now_ns () - t0) /. 1e9)

let close_small s =
  Hclient.close s.client;
  stop_server s.srv

let small_sessions ~seed ~data cfg =
  let times = ref [] in
  let rec go k =
    let s, dt = small_setup ~seed ~data cfg k in
    times := dt :: !times;
    if k + 1 < cfg.setups then begin
      close_small s;
      rm_rf s.dir;
      go (k + 1)
    end
    else s
  in
  let s = go 0 in
  (s, Util.median_of_list !times)

let final_checks_small s =
  Array.iter
    (fun (net : Hgen.net) ->
      check_http (State { net }) (exec_http s.client (State { net })))
    s.nets;
  let _, body = Hclient.request s.client ~meth:"GET" ~path:"/nets" () in
  Array.iter
    (fun (net : Hgen.net) ->
      let key = Printf.sprintf "{\"id\":\"%s\"," net.Hgen.id in
      match Util.find body key with
      | None -> Util.mismatch "%s: missing from GET /nets" net.Hgen.id
      | Some i -> (
        match json_int (String.sub body i (String.length body - i)) "\"acked\":" with
        | Some a when a = net.Hgen.acked -> ()
        | _ -> Util.mismatch "%s: GET /nets acked differs from model %d" net.Hgen.id net.Hgen.acked))
    s.nets

(* What a timed phase leaves: the samples, and the program process's
   allocated words, minor and major collections over the phase, and
   peak RSS. *)
type phase = { tm : timed; words : float; minor : int; major : int; rss : float }

(* The served timed phase: every net warmed past [warm_episodes] first;
   the server process's own counters. *)
let small_phase s cfg rng ~seconds =
  warm_http s.client rng cfg s.nets;
  let w0, mi0, ma0, _ = server_gc s.srv in
  let tm =
    run_rounds ~seconds ~round:cfg.round_ops
      ~gen:(fun () -> gen_op rng cfg.mix s.nets)
      ~exec:(fun tm op ->
        let t0 = Util.now_ns () in
        match exec_http s.client op with
        | answer ->
          record tm op (Util.us_of_ns (Util.now_ns () - t0)) 0.0;
          check_http op answer
        | exception e ->
          record_failed tm e;
          Hclient.close s.client;
          s.client <- Hclient.connect s.srv.port)
  in
  let w1, mi1, ma1, rss = server_gc s.srv in
  { tm; words = w1 -. w0; minor = mi1 - mi0; major = ma1 - ma0; rss }

let small_timed ~seed ~seconds ~data ~tiny =
  let cfg = small_config ~tiny in
  let s, setup_s = small_sessions ~seed ~data cfg in
  let p = small_phase s cfg (Random.State.make [| seed; 2 |]) ~seconds in
  final_checks_small s;
  close_small s;
  check_recovery ~dir:s.dir s.nets;
  rm_rf s.dir;
  (p.tm, end_to_end p.tm ~setup_s ~words_per_op:(p.words /. float_of_int p.tm.ops) ~rss_mb:p.rss)

(* ---------------- hosted_large_net ---------------- *)

let large_config ~tiny =
  {
    n_nets = 2;
    tenants = 2;
    min_vars = (if tiny then 600 else 10_240);
    max_vars = 0;
    mix = { max_batch = 1; viol_pct = 2; heads_pct = 30; write_pct = 85; why_pct = 13 };
    round_ops = (if tiny then 50 else 200);
    warm_episodes = 0;
    setups = (if tiny then 2 else 3);
    snapshot_every = 0;
  }

let large_nets rng cfg ~rep =
  Array.init cfg.n_nets (fun i ->
      Hgen.large_net rng
        ~id:(Printf.sprintf "L%d_%d" i rep)
        ~tenant:(Printf.sprintf "t%d" i)
        ~inputs:(if cfg.min_vars < 5000 then 128 else 2560)
        ~target:cfg.min_vars)

(* One set-up: [Wstore.create] of every net in a fresh data dir. *)
let large_setup ~seed ~data cfg k =
  let rng = Random.State.make [| seed; 3 |] in
  let nets = large_nets rng cfg ~rep:k in
  let dir = Filename.concat data (Printf.sprintf "large-%d" k) in
  rm_rf dir;
  mkdir_p dir;
  W.configure ~dir ~fsync:Serve.Journal.Never ~snapshot_every:cfg.snapshot_every ();
  let t0 = Util.now_ns () in
  Array.iter
    (fun (net : Hgen.net) ->
      match W.create ~tenant:net.Hgen.tenant ~id:net.Hgen.id ~spec:net.Hgen.spec () with
      | Ok _ -> ()
      | Error msg -> Util.mismatch "%s: create failed: %s" net.Hgen.id msg)
    nets;
  let dt = float_of_int (Util.now_ns () - t0) /. 1e9 in
  (nets, dir, dt)

(* Set-up repetitions after the first: timed, then dropped.  They run
   after the measured phase, so their garbage never shares the heap
   with the measured nets. *)
let more_large_setups ~seed ~data cfg =
  List.init (cfg.setups - 1) (fun k ->
      let nets, dir, dt = large_setup ~seed ~data cfg (k + 1) in
      Array.iter (fun (n : Hgen.net) -> ignore (W.drop ~id:n.Hgen.id)) nets;
      rm_rf dir;
      dt)

(* One operation on the in-process store; the answer is checked by
   the caller. *)
type answer = Applied of (unit, W.set_error) result array | Why_head of (string * string option) option | Rows of (string * string option) list

let exec_store op =
  match op with
  | Set { net; items; _ } ->
    let e = entry_of net in
    Applied
      (Array.map
         (fun (leaf, v, _) -> W.apply_set e ~path:net.Hgen.paths.(leaf) ~value:(Dval.Int v) ~just:Types.User)
         items)
  | Why { net; var; _ } -> Why_head (why_head (W.prov (entry_of net)) net.Hgen.paths.(var))
  | State { net; _ } -> Rows (state_rows (entry_of net))

(* A set error that is not a check's verdict: the operation failed. *)
let store_failure = function
  | Ok () | Error (W.Violation { over_budget = false; _ }) -> false
  | Error _ -> true

let check_store op answer =
  match (op, answer) with
  | Set { net; items; acked; _ }, Applied got -> (
    match Array.find_opt store_failure got with
    | Some (Error err) -> Util.fail "%s: set failed: %s" net.Hgen.id (W.set_error_message err)
    | _ ->
      Array.iteri
        (fun n (leaf, _, ok) ->
          if Result.is_ok got.(n) <> ok then
            Util.mismatch "%s: set %s ok=%b, model says %b" net.Hgen.id net.Hgen.paths.(leaf)
              (Result.is_ok got.(n)) ok)
        items;
      let a = W.acked (entry_of net) in
      if a <> acked then Util.mismatch "%s: acked %d, model says %d" net.Hgen.id a acked)
  | Why { net; var; value }, Why_head head -> check_why net var value ~head
  | State { net }, Rows rows -> check_state net net.Hgen.vals rows
  | _ -> Util.mismatch "answer of the wrong kind"

(* The in-process timed phase; this process's own counters, taken
   inside the brackets around the program's calls. *)
let large_phase nets cfg rng ~seconds =
  let mi0 = !Util.minor_in and ma0 = !Util.major_in in
  let tm =
    run_rounds ~seconds ~round:cfg.round_ops
      ~gen:(fun () -> gen_op rng cfg.mix nets)
      ~exec:(fun tm op ->
        match Util.measure (fun () -> exec_store op) with
        | answer, us, words ->
          record tm op us words;
          check_store op answer
        | exception e -> record_failed tm e)
  in
  { tm; words = tm.words; minor = !Util.minor_in - mi0; major = !Util.major_in - ma0; rss = Util.peak_rss_mb () }

let large_timed ~seed ~seconds ~data ~tiny =
  let cfg = large_config ~tiny in
  let nets, dir, setup0 = large_setup ~seed ~data cfg 0 in
  let p = large_phase nets cfg (Random.State.make [| seed; 4 |]) ~seconds in
  Array.iter (fun (net : Hgen.net) -> check_store (State { net }) (exec_store (State { net }))) nets;
  Array.iter (fun (n : Hgen.net) -> ignore (W.drop ~id:n.Hgen.id)) nets;
  check_recovery ~dir nets;
  rm_rf dir;
  let setup_s = Util.median_of_list (setup0 :: more_large_setups ~seed ~data cfg) in
  (p.tm, end_to_end p.tm ~setup_s ~words_per_op:(p.words /. float_of_int p.tm.ops) ~rss_mb:p.rss)
