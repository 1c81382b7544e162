(* Generated hosted networks in the [Wstore] spec language, and the
   independent model that predicts what the store must answer.

   Every generated network is an acyclic dataflow over integer
   variables: leaves (the only variables ever written) feed derived
   variables, each defined by exactly one [eq]/[sum]/[max]/[min]/[add]
   constraint from earlier variables.  Checks ([cap]/[le]/[range]) are
   placed so that leaf values in [0, 99] never violate them, while a
   value of 10^6 on a guarded leaf always does.  By Apt's result
   (PAPERS.md) a committed state is the common fixpoint of the
   constraints whatever the propagation order, so the model computes it
   by evaluating the definitions in topological order — no engine code
   involved. *)

type def =
  | Eq of int  (* copy of one earlier variable (a binary [eq] link) *)
  | Sum of int array
  | Max of int array
  | Min of int array
  | Add of int * int

type check = Cap of int * int | Le of int * int | Range of int * int * int

type net = {
  id : string;
  tenant : string;
  paths : string array;
  index : (string, int) Hashtbl.t;  (* path -> variable *)
  defs : def option array;  (* None for leaves *)
  checks : check array;
  leaves : int array;  (* writable variables *)
  guarded : int array;  (* leaves a 10^6 value must be rejected on *)
  heads : int array;  (* leaves at the head of an eq chain *)
  roots : int array;  (* the [why] targets: roll-up roots *)
  users : int list array;  (* var -> derived vars reading it *)
  watchers : int list array;  (* var -> checks reading it *)
  spec : string;
  (* model state: committed values, and the count of acknowledged sets
     ([Wstore.acked]: the initial sets plus every committed write) *)
  vals : int array;
  changed_at : int array;  (* var -> [episodes] when a committed write last changed it *)
  mutable acked : int;
  mutable episodes : int;  (* write episodes the store has run, rejected ones too *)
}

let normal_max = 99

let big = 1_000_000

(* ---------------- construction ---------------- *)

type builder = {
  mutable b_paths : string list;
  mutable b_defs : def option list;
  mutable b_n : int;
  mutable b_checks : check list;
}

let builder () = { b_paths = []; b_defs = []; b_n = 0; b_checks = [] }

let add_var b path def =
  b.b_paths <- path :: b.b_paths;
  b.b_defs <- def :: b.b_defs;
  b.b_n <- b.b_n + 1;
  b.b_n - 1

let check b c = b.b_checks <- c :: b.b_checks

let def_inputs = function
  | Eq a -> [ a ]
  | Sum xs | Max xs | Min xs -> Array.to_list xs
  | Add (a, b) -> [ a; b ]

let check_inputs = function Cap (a, _) | Range (a, _, _) -> [ a ] | Le (a, b) -> [ a; b ]

let eval vals = function
  | Eq a -> vals.(a)
  | Sum xs -> Array.fold_left (fun s i -> s + vals.(i)) 0 xs
  | Max xs -> Array.fold_left (fun s i -> max s vals.(i)) min_int xs
  | Min xs -> Array.fold_left (fun s i -> min s vals.(i)) max_int xs
  | Add (a, b) -> vals.(a) + vals.(b)

let holds vals = function
  | Cap (a, k) -> vals.(a) <= k
  | Le (a, b) -> vals.(a) <= vals.(b)
  | Range (a, lo, hi) -> vals.(a) >= lo && vals.(a) <= hi

let spec_text paths defs checks init =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let p i = paths.(i) in
  let ps xs = String.concat " " (List.map p (Array.to_list xs)) in
  Array.iteri
    (fun i d ->
      match d with
      | None -> line "var %s = %d" (p i) init.(i)
      | Some _ -> line "var %s" (p i))
    defs;
  Array.iteri
    (fun i d ->
      match d with
      | None -> ()
      | Some (Eq a) -> line "eq %s %s" (p a) (p i)
      | Some (Sum xs) -> line "sum %s %s" (p i) (ps xs)
      | Some (Max xs) -> line "max %s %s" (p i) (ps xs)
      | Some (Min xs) -> line "min %s %s" (p i) (ps xs)
      | Some (Add (a, b)) -> line "add %s %s %s" (p a) (p b) (p i))
    defs;
  Array.iter
    (function
      | Cap (a, k) -> line "cap %s %d" (p a) k
      | Le (a, b) -> line "le %s %s" (p a) (p b)
      | Range (a, lo, hi) -> line "range %s %d..%d" (p a) lo hi)
    checks;
  Buffer.contents buf

let finish ?why_targets ~id ~tenant rng b =
  let n = b.b_n in
  let paths = Array.of_list (List.rev b.b_paths) in
  let defs = Array.of_list (List.rev b.b_defs) in
  let checks = Array.of_list (List.rev b.b_checks) in
  let users = Array.make n [] and watchers = Array.make n [] in
  Array.iteri
    (fun i d ->
      Option.iter
        (fun d -> List.iter (fun a -> users.(a) <- i :: users.(a)) (def_inputs d))
        d)
    defs;
  Array.iteri
    (fun ci c -> List.iter (fun a -> watchers.(a) <- ci :: watchers.(a)) (check_inputs c))
    checks;
  (* guarded: a cap/range on the variable itself, or a monotone
     (eq/sum/max/add) path to a guarded variable *)
  let guarded = Array.make n false in
  Array.iter
    (function Cap (a, _) | Range (a, _, _) -> guarded.(a) <- true | Le _ -> ())
    checks;
  for i = n - 1 downto 0 do
    match defs.(i) with
    | Some (Eq _ | Sum _ | Max _ | Add _ as d) when guarded.(i) ->
      List.iter (fun a -> guarded.(a) <- true) (def_inputs d)
    | _ -> ()
  done;
  let init = Array.init n (fun _ -> Random.State.int rng (normal_max + 1)) in
  let vals = Array.make n 0 in
  Array.iteri
    (fun i d -> vals.(i) <- (match d with None -> init.(i) | Some d -> eval vals d))
    defs;
  Array.iter (fun c -> if not (holds vals c) then invalid_arg "generator: initial state violates a check") checks;
  let leaves = List.filter (fun i -> defs.(i) = None) (List.init n Fun.id) in
  {
    id;
    tenant;
    paths;
    index =
      (let h = Hashtbl.create n in
       Array.iteri (fun i p -> Hashtbl.replace h p i) paths;
       h);
    defs;
    checks;
    leaves = Array.of_list leaves;
    guarded = Array.of_list (List.filter (fun i -> guarded.(i)) leaves);
    heads =
      Array.of_list
        (List.filter
           (fun i -> List.exists (fun u -> match defs.(u) with Some (Eq _) -> true | _ -> false) users.(i))
           leaves);
    roots =
      (match why_targets with
      | Some t -> t
      | None ->
        Array.of_list
          (List.filter (fun i -> defs.(i) <> None && users.(i) = []) (List.init n Fun.id)));
    users;
    watchers;
    spec = spec_text paths defs checks init;
    vals;
    changed_at = Array.make n (-(1 lsl 40));
    acked = List.length leaves;
    episodes = List.length leaves;
  }

(* Upper bound of each variable under leaf values in [0, normal_max]. *)
let upper_bound ub = function
  | Eq a -> ub.(a)
  | Sum xs -> Array.fold_left (fun s i -> s + ub.(i)) 0 xs
  | Max xs -> Array.fold_left (fun s i -> max s ub.(i)) 0 xs
  | Min xs -> Array.fold_left (fun s i -> min s ub.(i)) max_int xs
  | Add (a, b) -> ub.(a) + ub.(b)

(* A small net of [n] variables (10–40 in the served workload): n/6 + 3
   leaves, then derived variables whose kinds cycle through a fixed
   pattern (eq, sum, max, eq, sum, min, add, sum, max, eq) over random
   earlier variables; a cap at the structural upper bound of every
   sum, max and add, [le] from the first input of every third one, a
   [range] on every third leaf.  Only the wiring and the values depend
   on the seed, so every seed draws nets of the same make-up. *)
let small_net rng ~id ~tenant ~n =
  let b = builder () in
  let ub = Array.make n 0 in
  let nleaves = 3 + (n / 6) in
  for i = 0 to nleaves - 1 do
    ignore (add_var b (Printf.sprintf "in.x%d" i) None);
    ub.(i) <- normal_max;
    if i mod 3 = 0 then check b (Range (i, 0, normal_max))
  done;
  let pick () = Random.State.int rng b.b_n in
  let picks k = Array.init k (fun _ -> pick ()) in
  let kinds = [| `Eq; `Sum; `Max; `Eq; `Sum; `Min; `Add; `Sum; `Max; `Eq |] in
  while b.b_n < n do
    let i = b.b_n in
    let d =
      match kinds.((i - nleaves) mod Array.length kinds) with
      | `Eq -> Eq (pick ())
      | `Sum -> Sum (picks (2 + (i mod 3)))
      | `Max -> Max (picks (2 + (i mod 3)))
      | `Min -> Min (picks 2)
      | `Add -> Add (pick (), pick ())
    in
    let owner = match d with Eq _ -> "eq" | Sum _ -> "sum" | Max _ -> "max" | Min _ -> "min" | Add _ -> "add" in
    ignore (add_var b (Printf.sprintf "%s.v%d" owner i) (Some d));
    ub.(i) <- upper_bound ub d;
    match d with
    | Sum xs | Max xs ->
      check b (Cap (i, ub.(i)));
      if i mod 3 = 0 then check b (Le (xs.(0), i))
    | Add _ -> check b (Cap (i, ub.(i)))
    | Eq _ | Min _ -> ()
  done;
  finish ~id ~tenant rng b

(* A hosted net of at least [target] variables: [inputs] tree inputs,
   [chains] of them the tails of eq chains of 10–100 variables whose
   heads are the written leaves; over the inputs a fan-in-8 sum tree
   and a fan-in-8 max tree up to their roots; a cap on every sum node
   and [le max sum] at each level-1 pair; a [range] on every fourth
   direct leaf.  Eq chains are added until [target] is reached. *)
let large_net rng ~id ~tenant ~inputs ~target =
  let b = builder () in
  (* tree inputs come last in variable order so every chain head and
     direct leaf is declared first; decide which inputs are chain tails
     by building chains until the variable budget is met *)
  let tree_nodes =
    let rec count k = if k <= 1 then 0 else ((k + 7) / 8) + count ((k + 7) / 8) in
    2 * count inputs
  in
  let chain_budget = max 0 (target - inputs - tree_nodes) in
  (* chain lengths sweep 10..100 in a fixed order, so every seed gets
     the same length distribution (the seed decides which chain is
     which, and every value) *)
  let chain_lens = ref [] and used = ref 0 in
  while !used < chain_budget do
    let len = 10 + (List.length !chain_lens * 37 mod 91) in
    chain_lens := len :: !chain_lens;
    used := !used + len - 1 (* the tail is a tree input *)
  done;
  let chain_lens = Array.of_list !chain_lens in
  let nchains = min (Array.length chain_lens) inputs in
  let ub = Hashtbl.create 1024 in
  let ubv i = Hashtbl.find ub i in
  (* inputs: chains first (head leaf, links, tail), then direct leaves *)
  let input_vars = Array.make inputs 0 in
  for c = 0 to nchains - 1 do
    let head = add_var b (Printf.sprintf "c%d.h" c) None in
    Hashtbl.replace ub head normal_max;
    let prev = ref head in
    for k = 1 to chain_lens.(c) - 1 do
      let v = add_var b (Printf.sprintf "c%d.l%d" c k) (Some (Eq !prev)) in
      Hashtbl.replace ub v normal_max;
      prev := v
    done;
    input_vars.(c) <- !prev
  done;
  for k = nchains to inputs - 1 do
    let v = add_var b (Printf.sprintf "d%d.x" k) None in
    Hashtbl.replace ub v normal_max;
    if k mod 4 = 0 then check b (Range (v, 0, normal_max));
    input_vars.(k) <- v
  done;
  let level nodes kind lvl =
    let groups = (Array.length nodes + 7) / 8 in
    Array.init groups (fun g ->
        let xs = Array.sub nodes (g * 8) (min 8 (Array.length nodes - (g * 8))) in
        let d, name = match kind with `Sum -> (Sum xs, "s") | `Max -> (Max xs, "m") in
        let v = add_var b (Printf.sprintf "t%d.%s%d" lvl name g) (Some d) in
        Hashtbl.replace ub v
          (Array.fold_left (fun s i -> match kind with `Sum -> s + ubv i | `Max -> max s (ubv i)) 0 xs);
        v)
  in
  (* the roots of the roll-up subtrees above level 1 are the why
     targets: a why on a level-1 node is a few spans, one on the top
     root walks every retained span of the tree *)
  let targets = ref [] in
  let rec build sums maxes lvl =
    if Array.length sums <= 1 then ()
    else begin
      let s = level sums `Sum lvl and m = level maxes `Max lvl in
      Array.iter (fun v -> check b (Cap (v, ubv v))) s;
      if lvl = 1 then Array.iteri (fun g v -> check b (Le (m.(g), v))) s
      else targets := Array.to_list s @ Array.to_list m @ !targets;
      build s m (lvl + 1)
    end
  in
  build input_vars input_vars 1;
  finish ~why_targets:(Array.of_list !targets) ~id ~tenant rng b

(* ---------------- the model ---------------- *)

(* Predict one set: [true] when it commits — the model is updated — or
   [false] when a check rejects it and the model is left as it was. *)
let apply net leaf value =
  net.episodes <- net.episodes + 1;
  let vals = net.vals in
  let undo = ref [ (leaf, vals.(leaf)) ] in
  vals.(leaf) <- value;
  (* re-evaluate every derived variable downstream of the leaf in
     variable (= topological) order *)
  let dirty = Hashtbl.create 16 in
  let rec mark v = List.iter (fun u -> if not (Hashtbl.mem dirty u) then (Hashtbl.replace dirty u (); mark u)) net.users.(v) in
  mark leaf;
  let order = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) dirty []) in
  List.iter
    (fun u ->
      match net.defs.(u) with
      | None -> ()
      | Some d ->
        let x = eval vals d in
        if x <> vals.(u) then begin
          undo := (u, vals.(u)) :: !undo;
          vals.(u) <- x
        end)
    order;
  let ok =
    List.for_all
      (fun (v, _) -> List.for_all (fun ci -> holds vals net.checks.(ci)) net.watchers.(v))
      !undo
  in
  if ok then begin
    net.acked <- net.acked + 1;
    List.iter (fun (v, _) -> net.changed_at.(v) <- net.episodes) !undo;
    true
  end
  else begin
    List.iter (fun (v, x) -> vals.(v) <- x) !undo;
    false
  end

(* One generated write: a leaf and a value.  [viol_pct] percent of
   items put 10^6 on a guarded leaf; of the rest, [heads_pct] percent
   write the head of an eq chain. *)
let gen_item rng net ~viol_pct ~heads_pct =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  if Random.State.int rng 100 < viol_pct && Array.length net.guarded > 0 then
    (pick net.guarded, big + Random.State.int rng 1000)
  else
    let leaf =
      if Random.State.int rng 100 < heads_pct && Array.length net.heads > 0 then pick net.heads
      else pick net.leaves
    in
    (leaf, Random.State.int rng (normal_max + 1))

(* A [why] target: a roll-up root that a committed write changed within
   the net's last [recent_episodes] episodes, else any variable that
   one did; [None] if none did.  A provenance store keeps a bounded ring
   of spans (8192 by default) and [why] is empty once a variable's
   latest span has left it; a few dozen episodes of these nets write far
   fewer spans than that, so every chosen target must have a chain. *)
let recent_episodes = 16

(* The roots changed within the last [recent_episodes], else every
   variable that was. *)
let why_candidates net =
  let recent v = net.episodes - net.changed_at.(v) < recent_episodes in
  match List.filter recent (Array.to_list net.roots) with
  | _ :: _ as l -> l
  | [] -> List.filter recent (List.init (Array.length net.vals) Fun.id)

let why_target rng net =
  match why_candidates net with
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))
