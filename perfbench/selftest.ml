(* Self-tests of the benchmark's own aggregation, run before every
   measurement (and alone with [--selftest]). Each returns the failures it
   found; an empty list is a pass. *)

module Cluster = Dtx.Cluster
module Table = Dtx_locks.Table
module Mode = Dtx_locks.Mode

let check name cond failures = if cond then failures else name :: failures

let percentiles () =
  let sorted = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let p per_mille = Agg.percentile sorted ~per_mille in
  let p50 = p 500 and p99 = p 990 and p100 = p 1000 in
  let ten = Agg.percentile (Array.init 10 float_of_int) ~per_mille:990 in
  let one = Agg.percentile [| 4.5 |] ~per_mille:990 in
  []
  |> check "p50 of 1..1000 is 500 with 500 above" (p50.value = 500.0 && p50.above = 500)
  |> check "p99 of 1..1000 is 990 with 10 above" (p99.value = 990.0 && p99.above = 10)
  |> check "p100 is the maximum with none above" (p100.value = 1000.0 && p100.above = 0)
  |> check "sample count is reported" (p99.samples = 1000)
  |> check "p99 of 10 samples is the maximum" (ten.value = 9.0 && ten.above = 0)
  |> check "one sample is every percentile" (one.value = 4.5 && one.above = 0)
  |> check "median of an odd count" (Agg.median [ 3.0; 1.0; 2.0 ] = 2.0)
  |> check "median of an even count" (Agg.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)
  |> check "fastest is the smallest sample" (Agg.fastest [ 3.0; 1.5; 2.0 ] = 1.5)
  |> check "gaps are the differences of consecutive stamps"
       (Agg.gaps [| 10; 13; 13; 20 |] = [| 3; 0; 7 |] && Agg.gaps [| 5 |] = [||])
  |> check "slice-wise fastest sums each slice's fastest run"
       (Agg.fastest_slices [ [| 3; 5; 2 |]; [| 4; 1; 6 |]; [| 9; 9; 9 |] ] = 6)
  |> check "slice-wise fastest of one run is its total"
       (Agg.fastest_slices [ [| 3; 5; 2 |] ] = 10)
  |> check "slice-wise fastest refuses runs of different lengths"
       (match Agg.fastest_slices [ [| 1; 2 |]; [| 1 |] ] with
        | _ -> false
        | exception Invalid_argument _ -> true)

(* The steady rate ignores the ramp-up and the drain. *)
let steady () =
  let even = Array.init 101 (fun i -> 2.0 *. float_of_int i) in
  let straggler = Array.copy even in
  straggler.(100) <- 1e6;
  straggler.(0) <- 0.0;
  let slow = Array.init 101 (fun i -> 4.0 *. float_of_int i) in
  []
  |> check "one commit every 2 ms is 500 per second" (Agg.steady_rate [ even ] = 500.0)
  |> check "a late straggler leaves the steady rate alone"
       (Agg.steady_rate [ straggler ] = 500.0)
  |> check "runs pool commits over time spanned"
       (Agg.steady_rate [ even; slow ] = 160.0 /. 0.48)

(* Buckets plus the uncharged remainder cover the interval exactly, and
   each bucket holds exactly the gaps charged to it. *)
let segments () =
  let rng = Dtx_util.Rng.create 11 in
  let start = 1_000 in
  let seg = Agg.Segments.create ~buckets:4 ~start in
  let expect = Array.make 4 0 in
  let now = ref start in
  for _ = 1 to 5_000 do
    let gap = Dtx_util.Rng.int rng 997 in
    now := !now + gap;
    let b = Dtx_util.Rng.int rng 5 in
    if b = 4 then Agg.Segments.skip seg ~now:!now
    else begin
      Agg.Segments.charge seg ~now:!now ~bucket:b;
      expect.(b) <- expect.(b) + gap
    end
  done;
  let stop = !now + 123 in
  []
  |> check "segments cover the traced wall time"
       (Agg.Segments.charged seg + Agg.Segments.unattributed seg ~stop = stop - start)
  |> check "each bucket holds its own segments" (seg.Agg.Segments.totals = expect)

(* The phase groups of a transaction sum to its response time. *)
let phases () =
  let t = Agg.Phases.create () in
  Agg.Phases.admit t ~txn:1 ~time:1.0;
  Agg.Phases.move t ~txn:1 ~time:1.3 ~group:1;
  Agg.Phases.move t ~txn:1 ~time:2.7 ~group:2;
  Agg.Phases.move t ~txn:1 ~time:5.0 ~group:1;
  Agg.Phases.move t ~txn:1 ~time:5.1 ~group:3;
  let spent, response = Agg.Phases.finish t ~txn:1 ~time:7.25 in
  let close a b = Float.abs (a -. b) < 1e-12 in
  let rng = Dtx_util.Rng.create 12 in
  let long_ok = ref true in
  for txn = 2 to 200 do
    let time = ref (Dtx_util.Rng.float rng 1000.0) in
    Agg.Phases.admit t ~txn ~time:!time;
    for _ = 1 to 1 + Dtx_util.Rng.int rng 40 do
      time := !time +. Dtx_util.Rng.float rng 50.0;
      Agg.Phases.move t ~txn ~time:!time ~group:(Dtx_util.Rng.int rng Agg.Phases.groups)
    done;
    let spent, response = Agg.Phases.finish t ~txn ~time:(!time +. 0.125) in
    if not (Agg.Phases.sums_to spent response) then long_ok := false
  done;
  []
  |> check "phase split of a hand-made transaction"
       (close spent.(0) 0.3 && close spent.(1) 1.5 && close spent.(2) 2.3
        && close spent.(3) 2.15)
  |> check "hand-made phases sum to the response time"
       (close response 6.25 && Agg.Phases.sums_to spent response)
  |> check "random phase walks sum to their response times" !long_ok
  |> check "a wrong split is rejected" (not (Agg.Phases.sums_to [| 1.0; 1.0 |] 2.5))
  |> check "finished transactions are closed" (Agg.Phases.open_count t = 0)

(* The charging rules of the traced run. *)
let buckets () =
  let acquired =
    Cluster.Tr_lock
      { site = 0;
        ev = Table.Acquired { txn = 1; resource = Table.resource "d" 1; mode = Mode.ST } }
  in
  let admission = Cluster.Tr_phase { txn = 1; from_ = None; to_ = Executing } in
  let b = Tracing.bucket_of in
  []
  |> check "an admission closes an admit segment"
       (b Tracing.O_coord ~closer:admission = Some Tracing.admit)
  |> check "grant to grant is lock granting"
       (b Tracing.O_acquired ~closer:acquired = Some Tracing.grant)
  |> check "the last grant opens execution"
       (b Tracing.O_acquired ~closer:Cluster.Tr_tick = Some Tracing.exec)
  |> check "a shipment up to its first grant is lock granting"
       (b Tracing.O_ship ~closer:acquired = Some Tracing.grant)
  |> check "a tick opens dispatch" (b Tracing.O_tick ~closer:acquired = Some Tracing.dispatch)
  |> check "time before the first callback is unattributed"
       (b Tracing.O_start ~closer:Cluster.Tr_tick = None)

let run () = List.concat [ percentiles (); steady (); segments (); phases (); buckets () ]
