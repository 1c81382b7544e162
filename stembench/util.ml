(* Shared plumbing: clock, allocation and GC counters, order
   statistics, and the result line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let us_of_ns ns = float_of_int ns /. 1e3

(* Words allocated by this process so far: minor + direct-major, minus
   what was promoted (counted twice otherwise). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* What one [alloc_words] reading itself allocates, subtracted from
   every bracketed measurement. *)
let alloc_probe_words =
  lazy
    (let a = alloc_words () in
     let b = alloc_words () in
     b -. a)

let gc_collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* Peak resident set (VmHWM) of this process, in MB; 0 where /proc is
   absent. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* ---------------- samples ---------------- *)

(* A growable float array. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    a.(max 0 (min (n - 1) i))

let quantile s q = quantile_sorted (sorted s) q

let median_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile_sorted a 0.5

let mean s =
  if s.len = 0 then nan
  else begin
    let t = ref 0.0 in
    for i = 0 to s.len - 1 do
      t := !t +. s.data.(i)
    done;
    !t /. float_of_int s.len
  end

(* ---------------- bracketed measurement ---------------- *)

(* Minor and major collections that ran inside [measure]'s brackets,
   summed over the process's lifetime.  A collection runs when the heap
   fills, and the harness's own allocation between brackets still helps
   fill it, so these counts (like the timings) are not free of harness
   garbage; they only leave out the collections that ran outside the
   program's calls. *)
let minor_in = ref 0

let major_in = ref 0

(* Time (µs) and allocation (words) of one call. *)
let measure f =
  let mi0, ma0 = gc_collections () in
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = alloc_words () in
  let mi1, ma1 = gc_collections () in
  minor_in := !minor_in + mi1 - mi0;
  major_in := !major_in + ma1 - ma0;
  (r, us_of_ns (t1 - t0), w1 -. w0 -. Lazy.force alloc_probe_words)

(* ---------------- output ---------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_float m.m_value) m.m_unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

(* Progress and diagnostics go to stderr: the last stdout line is the
   result. *)
let note fmt = Printf.ksprintf (fun s -> prerr_endline ("stembench: " ^ s)) fmt

(* ---------------- oracle failures ---------------- *)

(* Every mismatch against an oracle lands here; the run reports
   [correct = false] if any did.  The first few are printed. *)
let mismatches = ref 0

let mismatch fmt =
  Printf.ksprintf
    (fun s ->
      incr mismatches;
      if !mismatches <= 10 then prerr_endline ("stembench: MISMATCH " ^ s))
    fmt

(* Operations that failed: the call raised, or answered with an error
   that is not a predicted verdict (an HTTP status other than 200/422,
   an unknown variable, a step-budget rejection).  Their answers are
   not compared with the oracles. *)
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      if !failed <= 10 then prerr_endline ("stembench: FAILED " ^ s))
    fmt

(* First index of [needle] in [hay] at or after [from]. *)
let find ?(from = 0) hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i =
    if i + ln > lh then None
    else if String.sub hay i ln = needle then Some i
    else go (i + 1)
  in
  go from
