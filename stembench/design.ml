(* The [design_session] workload: the thesis's designer loop, in
   process, with no sinks and no [Wstore].

   Set-up builds a gate family, compiled ripple-carry and carry-select
   adders (through the tile compilers), the structural selection family,
   an ALU over the compiled carry-select adder whose delay must stay
   within a designer-editable spec variable, and two selection contexts
   ([Datapath.alu] over the structural family and over a synthetic
   generic hierarchy, each with delay and area specs).  Writes are leaf
   characteristic edits, spec edits and [can_be_set_to] probes; reads are
   delay and critical-path queries and pruned module selection.

   The oracle recomputes every composite delay as a longest path over
   the cell structure with the R·C loading model, from its own record
   of the leaf characteristics; it never calls the delay library. *)

open Constraint_kernel
open Stem.Design
module Dn = Delay.Delay_network
module Sel = Selection.Select
module Cell = Stem.Cell

type session = {
  env : env;
  net : cnet;
  editable : class_delay array;  (* leaf characteristics designers edit *)
  n_gate : int;  (* editable.(0 .. n_gate-1) are gate delays, the rest logic units *)
  leaf : (int, float) Hashtbl.t;  (* model: cd_var id -> leaf value *)
  composites : class_delay array;  (* computed delays of built cells *)
  queries : class_delay array;  (* what the read ops ask about *)
  alu_delay : class_delay;
  spec_var : var;
  mutable spec : float;
  specs : (class_delay * float) list;  (* constant delay specs *)
  contexts : instance array;  (* generic instances module selection serves *)
}

(* ---------------- the oracle ---------------- *)

let number v = match v with Some d -> Dval.number d | None -> None

let rc_term inst signal =
  match (Hashtbl.find_opt inst.inst_nets signal, find_signal_opt inst.inst_of signal) with
  | Some net, Some { ss_res = Some r; _ } -> r *. Stem.Enet.total_load_capacitance net
  | _ -> 0.0

let is_leaf_delay cd = cd.cd_owner.cc_structure.st_subcells = [] || Var.is_user_set cd.cd_var

(* Worst-case delay of [cd] under the model: a leaf value, or the
   longest simple path (nets never revisited) through the declared
   delays of the subcells, each arc its nominal value plus R·C on the
   net it drives.  [None] if no path exists or an arc is unknown. *)
let rec delay_of s memo cd =
  if is_leaf_delay cd then Hashtbl.find_opt s.leaf cd.cd_var.v_id
  else
    match Hashtbl.find_opt memo cd.cd_var.v_id with
    | Some d -> d
    | None ->
      let d = longest s memo cd.cd_owner ~from_:cd.cd_from ~to_:cd.cd_to in
      Hashtbl.replace memo cd.cd_var.v_id d;
      d

and longest s memo cls ~from_ ~to_ =
  let best = ref None and unknown = ref false in
  let rec walk net visited acc =
    if not (List.memq net visited) then begin
      let visited = net :: visited in
      if acc <> None && List.exists (member_equal (Own_pin to_)) net.en_members then begin
        let d = Option.get acc in
        best := Some (match !best with Some b -> Float.max b d | None -> d)
      end;
      List.iter
        (function
          | Own_pin _ -> ()
          | Sub_pin (inst, signal) ->
            List.iter
              (fun cd ->
                if cd.cd_from = signal then
                  match Hashtbl.find_opt inst.inst_nets cd.cd_to with
                  | None -> ()
                  | Some next -> (
                    match delay_of s memo cd with
                    | None -> unknown := true
                    | Some nominal ->
                      let w = nominal +. rc_term inst cd.cd_to in
                      let acc = Some (match acc with None -> w | Some a -> a +. w) in
                      walk next visited acc))
              inst.inst_of.cc_delays)
        net.en_members
    end
  in
  List.iter
    (fun net -> if List.exists (member_equal (Own_pin from_)) net.en_members then walk net [] None)
    cls.cc_structure.st_nets;
  if !unknown then None else !best

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)

(* Every spec'd delay against its bound under the model: the verdict,
   and the smallest distance of any delay to its bound (a verdict
   within 10^-6 of a bound is ambiguous under floating point, and the
   generator never asks for one). *)
let judge_specs s ~spec =
  let memo = Hashtbl.create 64 in
  List.fold_left
    (fun (ok, margin) (cd, bound) ->
      match delay_of s memo cd with
      | None -> (ok, margin)
      | Some d -> (ok && d <= bound, Float.min margin (Float.abs (d -. bound))))
    (true, infinity)
    ((s.alu_delay, spec) :: s.specs)

(* The verdict on [cd := v], leaving the model as it was. *)
let judge_edit s cd v =
  let key = cd.cd_var.v_id in
  let old = Hashtbl.find s.leaf key in
  Hashtbl.replace s.leaf key v;
  let r = judge_specs s ~spec:s.spec in
  Hashtbl.replace s.leaf key old;
  r

(* Every computed delay of every built cell must equal the model's
   longest path. *)
let check_composites s =
  let memo = Hashtbl.create 64 in
  Array.iter
    (fun cd ->
      match (number (Var.value cd.cd_var), delay_of s memo cd) with
      | Some got, Some want when close got want -> ()
      | None, None -> ()
      | got, want ->
        let show = function Some d -> Printf.sprintf "%.12g" d | None -> "nil" in
        Util.mismatch "design: %s %s->%s = %s, longest path says %s" cd.cd_owner.cc_name cd.cd_from
          cd.cd_to (show got) (show want))
    s.composites

(* ---------------- set-up ---------------- *)

let lu_cell env ~name ~delay =
  let module St = Signal_types.Standard in
  let c = Cell.create env ~name ~doc:"logic unit" () in
  ignore (Cell.add_signal env c ~name:"in" ~dir:Input ~data:St.bit ~elec:St.cmos ~width:1 ~cap:0.06 ());
  ignore (Cell.add_signal env c ~name:"out" ~dir:Output ~data:St.bit ~elec:St.cmos ~width:1 ~res:2.0 ());
  ignore (Cell.set_class_bbox env c (Geometry.Rect.make Geometry.Point.origin ~width:20 ~height:30));
  (c, Cell.declare_delay env c ~from_:"in" ~to_:"out" ~estimate:delay ())

(* The ALU of the edit loop: a logic unit feeding operand bit 0 of the
   compiled carry-select adder, whose most significant sum bit is the
   ALU output.  Its in->out delay must stay within [spec_var]; its
   area (from the instance bounding boxes) within [max_area]. *)
let compiled_alu env (cs : Cell_library.Composed.carry_select) ~lu_delay ~max_area =
  let module St = Signal_types.Standard in
  let lu, lu_cd = lu_cell env ~name:"LUC" ~delay:lu_delay in
  let alu = Cell.create env ~name:"ALUC" ~doc:"ALU over the compiled carry-select adder" () in
  ignore (Cell.add_signal env alu ~name:"in" ~dir:Input ~data:St.bit ~elec:St.cmos ~width:1 ());
  ignore (Cell.add_signal env alu ~name:"out" ~dir:Output ~data:St.bit ~elec:St.cmos ~width:1 ~cap:0.08 ());
  let lu_i = Cell.instantiate env ~parent:alu ~of_:lu ~name:"lu" () in
  let add_i =
    Cell.instantiate env ~parent:alu ~of_:cs.Cell_library.Composed.cs_cell ~name:"add"
      ~transform:(Geometry.Transform.translation (Geometry.Point.make 40 0))
      ()
  in
  let wire name members =
    let n = Cell.add_net env alu ~name in
    List.iter (fun m -> ignore (Stem.Enet.connect env n m)) members
  in
  let bits = cs.Cell_library.Composed.cs_bits in
  wire "n_in" [ Own_pin "in"; Sub_pin (lu_i, "in") ];
  wire "n_mid" [ Sub_pin (lu_i, "out"); Sub_pin (add_i, "a0") ];
  wire "n_out" [ Sub_pin (add_i, Printf.sprintf "s%d" (bits - 1)); Own_pin "out" ];
  let cd = Cell.declare_delay env alu ~from_:"in" ~to_:"out" () in
  let spec_var = Dclib.variable env.env_cnet ~owner:"ALUC" ~name:"delaySpec" () in
  ignore (Dclib.less_equal env.env_cnet cd.cd_var spec_var ~label:"ALUC.delay<=spec");
  let area = Checking.Area.install env alu in
  ignore (Checking.Area.spec env area ~max_area);
  (alu, lu_cd, cd, spec_var)

let composite_delays env =
  List.concat_map
    (fun cls -> if cls.cc_structure.st_subcells = [] then [] else cls.cc_delays)
    (Stem.Env.cells env)

(* Set-up is the same for every seed: the seed drives the edit and
   query stream, so medians do not hang on one draw of the specs. *)
let setup ~tiny =
  let env = Stem.Env.create () in
  let net = env.env_cnet in
  let gates = Cell_library.Gates.make env in
  let bits = if tiny then 4 else 16 in
  (* the ripple-carry adder is only built: its delay networks join the
     propagation every gate edit drives, and its delays are queried *)
  ignore (Cell_library.Composed.ripple_adder env gates ~bits);
  let cs = Cell_library.Composed.carry_select_adder env gates ~bits in
  let generic, _, _ = Cell_library.Composed.structural_selection_family env gates in
  let synth, _ = Cell_library.Adders.synthetic_family env ~levels:(if tiny then 2 else 3) ~fanout:4 in
  let ideal =
    Option.get (number (Var.value (Option.get (find_delay_opt synth ~from_:"a" ~to_:"s")).cd_var))
  in
  let sel_struct =
    Cell_library.Datapath.alu env ~adder:generic ~delay_spec:30.0 ~area_spec:1500
  in
  let synth_spec = Float.round ((3.0 +. ideal) *. 1.6 *. 100.0) /. 100.0 in
  let sel_synth =
    Cell_library.Datapath.alu env ~adder:synth ~delay_spec:synth_spec
      ~area_spec:550
  in
  let alu, luc, alu_delay, spec_var =
    compiled_alu env cs ~lu_delay:2.0 ~max_area:1_000_000
  in
  (* build every delay network bottom-up *)
  List.iter
    (fun cd -> ignore (Dn.delay env cd.cd_owner ~from_:cd.cd_from ~to_:cd.cd_to))
    (composite_delays env);
  let alu_now = Option.get (Dn.delay env alu ~from_:"in" ~to_:"out") in
  let spec = Float.round (alu_now *. 1.25 *. 100.0) /. 100.0 in
  (match Engine.set net spec_var (Dval.Float spec) with
  | Ok () -> ()
  | Error _ -> Util.mismatch "design: initial spec rejected");
  let gate_classes =
    Cell_library.Gates.[ gates.nand2; gates.xor2; gates.mux2 ]
  in
  (* gate characteristics that some built delay network reads (arcs on
     no declared path have no dual instance variable), then the three
     logic units *)
  let gate_delays =
    List.filter (fun cd -> cd.cd_var.v_cstrs <> []) (List.concat_map (fun c -> c.cc_delays) gate_classes)
  in
  let lus =
    [ luc; List.hd sel_struct.Cell_library.Datapath.lu8.cc_delays; List.hd sel_synth.Cell_library.Datapath.lu8.cc_delays ]
  in
  let editable = Array.of_list (gate_delays @ lus) in
  let n_gate = List.length gate_delays in
  (* leaf characteristics as set up: the model's starting record *)
  let leaf = Hashtbl.create 256 in
  List.iter
    (fun cls ->
      List.iter
        (fun cd ->
          if is_leaf_delay cd then
            match number (Var.value cd.cd_var) with
            | Some d -> Hashtbl.replace leaf cd.cd_var.v_id d
            | None -> ())
        cls.cc_delays)
    (Stem.Env.cells env);
  let composites =
    Array.of_list (List.filter (fun cd -> not (is_leaf_delay cd)) (composite_delays env))
  in
  let queries =
    Array.of_list
      (List.filter (fun cd -> Var.value cd.cd_var <> None) (Array.to_list composites))
  in
  let contexts = [| sel_struct.Cell_library.Datapath.adder_inst; sel_synth.Cell_library.Datapath.adder_inst |] in
  (* first selections build the candidates' delay networks *)
  Array.iter
    (fun inst ->
      ignore (Sel.select env inst ~priorities:[ Sel.Delays; Sel.BBox ] ~prune:false ());
      ignore (Sel.select env inst ~priorities:[ Sel.Delays; Sel.BBox ] ()))
    contexts;
  let specs =
    List.filter_map
      (fun cd -> Option.map (fun b -> (cd, b)) cd.cd_spec)
      (composite_delays env)
  in
  let s =
    { env; net; editable; n_gate; leaf; composites; queries; alu_delay; spec_var; spec; specs; contexts }
  in
  check_composites s;
  s

(* ---------------- operations ---------------- *)

type op =
  | Edit of { cd : class_delay; value : float; ok : bool }
  | Spec of { value : float; ok : bool }
  | Probe of { cd : class_delay; value : float; ok : bool }
  | Query of { cd : class_delay; want : float option }
  | Critical of { cd : class_delay; want : float option }
  | Select of { inst : instance }

let is_write = function Edit _ | Spec _ | Probe _ -> true | Query _ | Critical _ | Select _ -> false

let kind = function
  | Edit _ -> "edit"
  | Spec _ -> "spec"
  | Probe _ -> "probe"
  | Query _ -> "delay"
  | Critical _ -> "critical"
  | Select _ -> "select"

let rec gen_value rng s cd =
  let v = Float.round ((0.3 +. Random.State.float rng 3.7) *. 100.0) /. 100.0 in
  let ok, margin = judge_edit s cd v in
  if margin < 1e-6 then gen_value rng s cd else (v, ok)

let rec gen_spec rng s =
  let memo = Hashtbl.create 64 in
  let now = Option.value (delay_of s memo s.alu_delay) ~default:10.0 in
  let v = Float.round (now *. (0.85 +. Random.State.float rng 0.45) *. 100.0) /. 100.0 in
  let ok, margin = judge_specs s ~spec:v in
  if margin < 1e-6 then gen_spec rng s else (v, ok)

(* Write share 70% (edits 50, spec edits 6, probes 14), reads 30%
   (delay queries 18, critical paths 6, selections 6).  The model moves
   with every committed edit as it is generated. *)
let gen_op rng s =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  (* nine in ten characteristic edits and probes touch a gate *)
  let pick_leaf () =
    if Random.State.int rng 10 > 0 then s.editable.(Random.State.int rng s.n_gate)
    else s.editable.(s.n_gate + Random.State.int rng (Array.length s.editable - s.n_gate))
  in
  let want cd = delay_of s (Hashtbl.create 64) cd in
  match Random.State.int rng 100 with
  | r when r < 50 ->
    let cd = pick_leaf () in
    let value, ok = gen_value rng s cd in
    if ok then Hashtbl.replace s.leaf cd.cd_var.v_id value;
    Edit { cd; value; ok }
  | r when r < 56 ->
    let value, ok = gen_spec rng s in
    if ok then s.spec <- value;
    Spec { value; ok }
  | r when r < 70 ->
    let cd = pick_leaf () in
    let value, ok = gen_value rng s cd in
    Probe { cd; value; ok }
  | r when r < 88 ->
    let cd = pick s.queries in
    Query { cd; want = want cd }
  | r when r < 94 ->
    let cd = pick s.queries in
    Critical { cd; want = want cd }
  | _ -> Select { inst = pick s.contexts }

type answer = Verdict of bool | Delay of float option | Picks of string list * Sel.stats

let priorities = [ Sel.Delays; Sel.BBox ]

let exec s op =
  match op with
  | Edit { cd; value; _ } -> Verdict (Result.is_ok (Engine.set s.net cd.cd_var (Dval.Float value)))
  | Spec { value; _ } -> Verdict (Result.is_ok (Engine.set s.net s.spec_var (Dval.Float value)))
  | Probe { cd; value; _ } -> Verdict (Engine.can_be_set_to s.net cd.cd_var (Dval.Float value))
  | Query { cd; _ } -> Delay (Dn.delay s.env cd.cd_owner ~from_:cd.cd_from ~to_:cd.cd_to)
  | Critical { cd; _ } ->
    Delay (Option.map snd (Dn.critical_path s.env cd.cd_owner ~from_:cd.cd_from ~to_:cd.cd_to))
  | Select { inst } ->
    let stats = Sel.fresh_stats () in
    let picks = Sel.select s.env inst ~priorities ~stats () in
    Picks (List.map (fun c -> c.cc_name) picks, stats)

(* Every variable's value and justification, for the restore check. *)
let snapshot s =
  List.map
    (fun v -> (v, Var.value v, Obs.Jsonl.just_string (Var.justification v)))
    s.net.Types.net_vars

let same_as s before =
  let now = snapshot s in
  if List.length now <> List.length before then Util.mismatch "design: variable count changed"
  else
    List.iter2
      (fun (v, x, j) (_, y, k) ->
        let same = match (x, y) with Some a, Some b -> Dval.equal a b | None, None -> true | _ -> false in
        if not (same && j = k) then Util.mismatch "design: rejected edit left %s changed" (Var.path v))
      before now

(* Run one op and check its answer; [timed] brackets the call itself. *)
let run_checked s ~timed op =
  let before = match op with Edit { ok = false; _ } | Spec { ok = false; _ } -> Some (snapshot s) | _ -> None in
  let answer = timed (fun () -> exec s op) in
  (match (op, answer) with
  | (Edit { ok; _ } | Spec { ok; _ } | Probe { ok; _ }), Verdict got ->
    if got <> ok then Util.mismatch "design: write verdict %b, model says %b" got ok;
    (match before with Some b -> same_as s b | None -> ());
    (match op with Edit { ok = true; _ } | Spec { ok = true; _ } -> check_composites s | _ -> ())
  | (Query { cd; want } | Critical { cd; want }), Delay got -> (
    match (got, want) with
    | Some g, Some w when close g w -> ()
    | None, None -> ()
    | _ -> Util.mismatch "design: delay of %s %s->%s differs from the longest path" cd.cd_owner.cc_name cd.cd_from cd.cd_to)
  | Select { inst }, Picks (picks, _) ->
    let all = Sel.select s.env inst ~priorities ~prune:false () in
    let all = List.map (fun c -> c.cc_name) all in
    if List.sort compare picks <> List.sort compare all then
      Util.mismatch "design: pruned selection [%s] differs from exhaustive [%s]" (String.concat "," picks)
        (String.concat "," all)
  | _ -> Util.mismatch "design: answer of the wrong kind");
  answer

(* ---------------- timed run ---------------- *)

let timed_setup ~tiny =
  let t0 = Util.now_ns () in
  let s = setup ~tiny in
  (s, float_of_int (Util.now_ns () - t0) /. 1e9)

(* The timed phase: ops generated one at a time, just before they run,
   so the model the checks read is the model of that moment. *)
let phase s ~seed ~seconds ~tiny =
  let rng = Random.State.make [| seed; 6 |] in
  let mi0 = !Util.minor_in and ma0 = !Util.major_in in
  let tm =
    Hosted.run_rounds ~seconds ~round:(if tiny then 50 else 200)
      ~gen:(fun () -> gen_op rng s)
      ~exec:(fun tm op ->
        let us = ref 0.0 and words = ref 0.0 in
        let timed f =
          let r, t, w = Util.measure f in
          us := t;
          words := w;
          r
        in
        match run_checked s ~timed op with
        | _ -> Hosted.record_kind tm ~write:(is_write op) ~kind:(kind op) !us !words
        | exception e -> Hosted.record_failed tm e)
  in
  {
    Hosted.tm;
    words = tm.Hosted.words;
    minor = !Util.minor_in - mi0;
    major = !Util.major_in - ma0;
    rss = Util.peak_rss_mb ();
  }

(* [setup_s] is the median of 15 set-ups: the measured one, and the
   rest after the timed phase so their garbage never shares its heap. *)
let timed_run ~seed ~seconds ~tiny =
  let s, setup0 = timed_setup ~tiny in
  let p = phase s ~seed ~seconds ~tiny in
  let more = List.init (if tiny then 1 else 14) (fun _ -> snd (timed_setup ~tiny)) in
  let setup_s = Util.median_of_list (setup0 :: more) in
  ( p.Hosted.tm,
    Hosted.end_to_end p.Hosted.tm ~setup_s
      ~words_per_op:(p.Hosted.words /. float_of_int p.Hosted.tm.Hosted.ops)
      ~rss_mb:p.Hosted.rss )

(* ---------------- traced run ---------------- *)

(* The design write path has no sinks and no store: its ladder is the
   bare kernel rung alone, replayed on a second set-up of the same
   design, with each operation kind timed on its own. *)
let trace_run ~seed ~seconds ~tiny =
  let p = phase (setup ~tiny) ~seed ~seconds:(seconds /. 3.0) ~tiny in
  let tm = p.Hosted.tm in
  let b = setup ~tiny in
  let rng = Random.State.make [| seed; 8 |] in
  let sample () = Util.samples () in
  let sets = sample () and set_words = sample () and probes = sample () and queries = sample ()
  and crits = sample () and selects = sample () and writes = sample () in
  let tested = ref 0 and pruned = ref 0 in
  let pushed net = List.fold_left (fun acc (_, t) -> acc + t.Types.at_pushed) 0 (Engine.agenda_totals net) in
  let st0 = Engine.stats b.net and push0 = pushed b.net in
  let ops = if tiny then 300 else 4000 in
  for _ = 1 to ops do
    let op = gen_op rng b in
    let us = ref 0.0 and words = ref 0.0 in
    let answer =
      run_checked b ~timed:(fun f -> let r, t, w = Util.measure f in us := t; words := w; r) op
    in
    let push s = Util.push s !us in
    (match op with
    | Edit _ | Spec _ ->
      push sets;
      Util.push set_words !words
    | Probe _ -> push probes
    | Query _ -> push queries
    | Critical _ -> push crits
    | Select _ -> (
      push selects;
      match answer with
      | Picks (_, st) ->
        tested := !tested + st.Sel.candidates_tested;
        pruned := !pruned + st.Sel.subtrees_pruned
      | _ -> ()));
    if is_write op then push writes
  done;
  let st1 = Engine.stats b.net and push1 = pushed b.net in
  let episodes = float_of_int (sets.Util.len + probes.Util.len) in
  let per x = float_of_int x /. episodes in
  let med s = Util.quantile s 0.5 in
  let find_us, find_words =
    Ladder.time_mean
      (fun cd -> Editor.find_var b.net (Var.path cd.cd_var))
      (List.concat (List.init 50 (fun _ -> Array.to_list b.editable)))
  in
  let untraced_p50 = Util.quantile tm.Hosted.writes 0.5 in
  Util.note "ladder: bare kernel writes %.1f us (edits %.1f, probes %.1f)" (med writes) (med sets) (med probes);
  let consistency = Ladder.consistency ~enforce:(not tiny) ~ladder_us:(med writes) ~untraced_us:untraced_p50 in
  let kop = float_of_int tm.Hosted.ops /. 1000.0 in
  let nsel = float_of_int (max 1 selects.Util.len) in
  let zero name unit = Util.metric name unit 0.0 in
  ( tm.Hosted.ops + ops,
    [
      Util.metric "engine.set_us" "us" (Util.mean sets);
      Util.metric "engine.words_per_set" "words" (Util.mean set_words);
      Util.metric "engine.inferences_per_set" "count" (per (st1.Types.st_inferences - st0.Types.st_inferences));
      Util.metric "engine.wakeups_per_set" "count" (per (st1.Types.st_wakeups - st0.Types.st_wakeups));
      Util.metric "engine.checks_per_set" "count" (per (st1.Types.st_checks - st0.Types.st_checks));
      Util.metric "agenda.pushes_per_set" "count" (per (push1 - push0));
      Util.metric "engine.probe_us" "us" (med probes);
      Util.metric "editor.find_var_us" "us" find_us;
      Util.metric "editor.find_var_words" "words" find_words;
      zero "board.us_per_set" "us";
      zero "monitor.us_per_set" "us";
      zero "provenance.us_per_set" "us";
      zero "provenance.words_per_set" "words";
      zero "provenance.why_us" "us";
      zero "tracing.overhead_us_per_request" "us";
      zero "wstore.apply_set_us" "us";
      zero "journal.append_us" "us";
      zero "journal.bytes_per_set" "bytes";
      zero "wstore.snapshot_us" "us";
      zero "wstore.snapshots_per_kset" "count";
      zero "wstore.state_us" "us";
      zero "wstore.create_s" "s";
      zero "http.parse_us" "us";
      zero "admission.admit_us" "us";
      zero "http.roundtrip_overhead_us" "us";
      Util.metric "delay.query_us" "us" (med queries);
      Util.metric "delay.critical_path_us" "us" (med crits);
      Util.metric "select.select_us" "us" (med selects);
      Util.metric "select.candidates_tested" "count" (float_of_int !tested /. nsel);
      Util.metric "select.subtrees_pruned" "count" (float_of_int !pruned /. nsel);
      Util.metric "gc.minor_collections_per_kop" "1/kop" (float_of_int p.Hosted.minor /. kop);
      Util.metric "gc.major_collections_per_kop" "1/kop" (float_of_int p.Hosted.major /. kop);
      consistency;
    ] )
