(* Pure aggregation behind the benchmark's numbers. Nothing here touches
   the cluster, so Selftest can check every rule on synthetic inputs. *)

let median = function
  | [] -> invalid_arg "Agg.median: no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The smallest sample: the repeat a shared host slowed least. *)
let fastest = function
  | [] -> invalid_arg "Agg.fastest: no samples"
  | x :: xs -> List.fold_left Float.min x xs

(* Durations between consecutive clock stamps. *)
let gaps stamps = Array.init (max 0 (Array.length stamps - 1)) (fun i -> stamps.(i + 1) - stamps.(i))

(* Slice-wise fastest: each run is a list of slice durations, and slice [k]
   does the same work in every run, so a run's time is bounded below by
   the sum over slices of the fastest time any run took for that slice.
   A burst of host interference then costs only if it hit the same slice
   in every run. Runs must have the same number of slices. *)
let fastest_slices = function
  | [] -> invalid_arg "Agg.fastest_slices: no runs"
  | r :: rs ->
    if List.exists (fun r' -> Array.length r' <> Array.length r) rs then
      invalid_arg "Agg.fastest_slices: runs with different slice counts";
    let best = Array.copy r in
    List.iter (Array.iteri (fun k d -> if d < best.(k) then best.(k) <- d)) rs;
    Array.fold_left ( + ) 0 best

(* Nearest-rank percentile: the smallest sample with at least [per_mille]
   thousandths of all samples at or below it. [above] counts the samples
   ranked beyond it, which says whether the percentile is resolved (a p99
   needs at least ten samples above it). Integer ranks avoid the rounding
   of [0.99 *. n]. *)
type percentile = { value : float; samples : int; above : int }

let percentile sorted ~per_mille =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Agg.percentile: no samples";
  if per_mille < 1 || per_mille > 1000 then
    invalid_arg "Agg.percentile: per_mille outside 1..1000";
  let rank = ((per_mille * n) + 999) / 1000 in
  let idx = rank - 1 in
  { value = sorted.(idx); samples = n; above = n - 1 - idx }

(* Commits per simulated second over the middle of each run: from the
   commit a tenth of the way through to the one a tenth from the end,
   pooled over runs (commits counted over time spanned). Each array holds
   one run's commit times in milliseconds, ascending. Trimming both ends
   keeps the ramp-up and the drain, where a single straggler sets the
   finish time, out of the rate. *)
let steady_rate runs =
  let count, span =
    List.fold_left
      (fun (count, span) stamps ->
        let n = Array.length stamps in
        let i = n / 10 and j = n - 1 - (n / 10) in
        if j <= i then invalid_arg "Agg.steady_rate: too few commits";
        (count + (j - i), span +. (stamps.(j) -. stamps.(i))))
      (0, 0.0) runs
  in
  if span <= 0.0 then invalid_arg "Agg.steady_rate: no time between commits";
  float_of_int count /. (span /. 1000.0)

(* Wall-clock segments between consecutive trace callbacks. Each segment
   is charged to one bucket; stamps are integer nanoseconds, so the
   buckets plus the uncharged remainder add up to the covered interval
   exactly. *)
module Segments = struct
  type t = {
    totals : int array;  (* ns per bucket *)
    start : int;
    mutable last : int;
  }

  let create ~buckets ~start = { totals = Array.make buckets 0; start; last = start }

  let charge t ~now ~bucket =
    t.totals.(bucket) <- t.totals.(bucket) + (now - t.last);
    t.last <- now

  (* Skip a span without charging it to any bucket. *)
  let skip t ~now = t.last <- now

  let charged t = Array.fold_left ( + ) 0 t.totals

  (* Everything between [start] and [stop] that no bucket holds. *)
  let unattributed t ~stop = stop - t.start - charged t

  let seconds t bucket = float_of_int t.totals.(bucket) *. 1e-9
end

(* Per-transaction split of simulated response time across coordinator
   phase groups. A transaction is admitted into group 0; every phase change
   charges the time since the previous change to the group being left, so
   at [finish] the groups sum to finish time minus admission time. *)
module Phases = struct
  let groups = 4

  type txn = { admitted : float; mutable since : float; mutable group : int; spent : float array }

  type t = (int, txn) Hashtbl.t

  let create () : t = Hashtbl.create 1024

  let admit (t : t) ~txn ~time =
    Hashtbl.replace t txn
      { admitted = time; since = time; group = 0; spent = Array.make groups 0.0 }

  let leave r ~time =
    r.spent.(r.group) <- r.spent.(r.group) +. (time -. r.since);
    r.since <- time

  let move (t : t) ~txn ~time ~group =
    match Hashtbl.find_opt t txn with
    | None -> invalid_arg "Agg.Phases.move: transaction never admitted"
    | Some r ->
      leave r ~time;
      r.group <- group

  (* Close the transaction: its per-group times and its response time. *)
  let finish (t : t) ~txn ~time =
    match Hashtbl.find_opt t txn with
    | None -> invalid_arg "Agg.Phases.finish: transaction never admitted"
    | Some r ->
      leave r ~time;
      Hashtbl.remove t txn;
      (r.spent, time -. r.admitted)

  let open_count (t : t) = Hashtbl.length t

  (* The groups must add up to the response time; only float rounding of
     the running sum may separate them. *)
  let sums_to spent response =
    let s = Array.fold_left ( +. ) 0.0 spent in
    Float.abs (s -. response) <= 1e-9 *. Float.max 1.0 (Float.abs response)
end
