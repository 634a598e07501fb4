(* The DTX benchmark. Run it through run.py, which builds this program and
   passes its arguments on:

     dtxbench --workload NAME --seed N --seconds S --trace 0|1 [--commit SHA]
     dtxbench --selftest

   A run drives a few instances of the workload's shape (Shapes), each
   with inputs generated from the seed before any of its runs is timed. It
   makes timed closed-loop runs, each on a freshly set-up cluster, cycling
   through the instances until every instance has run and [S] seconds have
   passed since the first input was generated: a slow host gives fewer
   repeats rather than a longer run (on a calm host every instance runs
   three times or more in 30 seconds). A timed run reads the clock every
   [slice_events] simulator events; the runs of one instance fire the same
   events in the same order, so its wall-clock figure is the sum over
   slices of the fastest time any of its runs took for that slice
   (Agg.fastest_slices). On a shared host interference only ever adds
   time, and a burst of it then counts only if it hit the same slice in
   every repeat. Last comes one traced run of the first instance that also
   records the history and checks it serializable. With [--trace 1] it
   finally times layer functions on what the traced run recorded. The
   last line of output is one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. [attempted] counts
   the planned transactions of every timed run and [failed] those that
   ended Failed (an abort that could not complete); aborts that outlive
   their retries are a concurrency-control outcome, reported by
   [txn_commit_ratio]. Any failed check makes it exit non-zero. *)

module Workload = Dtx_workload.Workload
module Cluster = Dtx.Cluster
module Site = Dtx.Site
module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg
module Protocol = Dtx_protocol.Protocol
module Vec = Dtx_util.Vec

(* --- one run ------------------------------------------------------------------ *)

(* The simulated outcome of a run. Tracing and repetition must leave every
   field unchanged. *)
type virt = {
  submitted : int;
  committed : int;
  aborted : int;
  failed : int;
  active : int;
  deadlock_aborts : int;
  validation_aborts : int;
  op_undos : int;
  makespan_ms : float;
  messages : int;
  bytes : int;
  lock_requests : int;
  blocked_ops : int;
  responses : float array;  (* committed transactions, in commit order *)
  stamps : float array;  (* their commit times *)
}

let virt_of cluster =
  let s = Cluster.stats cluster in
  let net = Cluster.net cluster in
  { submitted = s.submitted; committed = s.committed; aborted = s.aborted;
    failed = s.failed; active = Cluster.active_txns cluster;
    deadlock_aborts = s.deadlock_aborts; validation_aborts = s.validation_aborts;
    op_undos = s.op_undos;
    makespan_ms =
      (if s.last_finish > 0.0 then s.last_finish else Sim.now (Cluster.sim cluster));
    messages = Net.messages net; bytes = Net.bytes_sent net;
    lock_requests = Cluster.total_lock_requests cluster;
    blocked_ops = Cluster.total_blocked_ops cluster;
    responses = Vec.to_array s.response_times;
    stamps = Vec.to_array s.commit_stamps }

type timed = {
  wall_s : float;
  slices : int array;  (* ns: the initial submissions, then every [slice_events] events *)
  alloc_words : float;
  setup : Shapes.setup_times;
  virt : virt;
}

(* Only the closed loop is timed: submitting the first transaction of
   every client and running the simulator until it drains. *)
let drive (p : Workload.params) cluster scripts =
  Workload.submit_script ~retries:p.retries cluster scripts;
  Sim.run (Cluster.sim cluster)

(* Simulator events between two clock reads of a timed run: a few
   milliseconds to a few tens of them on every workload, so a clock read
   costs nothing measurable and a slice is short beside a burst of host
   interference. *)
let slice_events = 4000

(* [drive] with a clock stamp after the submissions and after every
   [slice_events] events. On the default single domain, [Sim.run
   ~max_events] repeated until the queue drains fires exactly the events
   one [Sim.run] fires, in the same order. *)
let drive_sliced (p : Workload.params) cluster scripts =
  let sim = Cluster.sim cluster in
  let t0 = Shapes.clock () in
  Workload.submit_script ~retries:p.retries cluster scripts;
  let stamps = ref [ Shapes.clock (); t0 ] in
  while Sim.pending sim > 0 do
    Sim.run ~max_events:slice_events sim;
    stamps := Shapes.clock () :: !stamps
  done;
  Array.of_list (List.rev !stamps)

let timed_run p scripts =
  Gc.compact ();
  let cluster, setup = Shapes.setup p in
  let minor0, promoted0, major0 = Gc.counters () in
  let stamps = drive_sliced p cluster scripts in
  let minor1, promoted1, major1 = Gc.counters () in
  { wall_s = Shapes.secs_between stamps.(0) stamps.(Array.length stamps - 1);
    slices = Agg.gaps stamps;
    alloc_words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
    setup; virt = virt_of cluster }

type traced = {
  tr : Tracing.t;
  t_virt : virt;
  serializable : (unit, string) result;
  check_s : float;
  cache_hits : int;
  cache_lookups : int;
  ops_processed : int;
  traffic : Net.traffic list;
}

let traced_run p scripts =
  Gc.compact ();
  let cluster, _ = Shapes.setup p in
  ignore (Cluster.enable_history cluster);
  let tr = Tracing.create cluster in
  Cluster.attach_tracer cluster (Tracing.callback tr);
  Tracing.start tr;
  drive p cluster scripts;
  Tracing.finish tr;
  Cluster.detach_tracer cluster;
  let c0 = Shapes.clock () in
  let serializable = Cluster.check_serializable cluster in
  let check_s = Shapes.secs_between c0 (Shapes.clock ()) in
  let sites = Cluster.sites cluster in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 sites in
  { tr; t_virt = virt_of cluster; serializable; check_s;
    cache_hits = sum (fun s -> fst (Protocol.cache_stats s.Site.protocol));
    cache_lookups =
      sum (fun s ->
          let h, m = Protocol.cache_stats s.Site.protocol in
          h + m);
    ops_processed = sum (fun s -> s.Site.stats.Site.ops_processed);
    traffic = Net.traffic (Cluster.net cluster) }

(* The message kinds the workloads send, each reported as a count. None
   runs two-phase commit (Prepare, Vote), wound-wait (Wound) or crash
   recovery (Outcome_query, Outcome_reply), and none replicates a fragment,
   so no operation runs at a second site to be undone there (Op_undo):
   those counts could never move. *)
let sent_kinds =
  Msg.Kind.[ Op_ship; Op_status; Commit; Abort; End_ack; Wake; Victim; Wfg_request; Wfg_reply ]

(* --- checks ----------------------------------------------------------------- *)

let failures = ref []

let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

(* Every planned transaction ends exactly once: committed, aborted after
   its last retry, or failed. Retries are the submissions beyond the plan. *)
let check_accounting ~what ~planned ~retries v =
  let retried = v.submitted - planned in
  let final_aborts = v.aborted - retried in
  if v.active <> 0 then fail "%s: %d transactions still active" what v.active;
  if retried < 0 || retried > planned * retries then
    fail "%s: %d resubmissions for %d planned transactions" what retried planned;
  if v.committed + final_aborts + v.failed <> planned then
    fail "%s: committed %d + final aborts %d + failed %d <> planned %d" what
      v.committed final_aborts v.failed planned;
  if v.committed = 0 then fail "%s: nothing committed" what

(* --- output ------------------------------------------------------------------- *)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
       metrics)

let dtx_env () =
  List.filter
    (fun kv -> String.length kv >= 4 && String.sub kv 0 4 = "DTX_")
    (Array.to_list (Unix.environment ()))

(* --- main --------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: dtxbench --workload NAME --seed N --seconds S --trace 0|1 [--commit SHA]\n\
    \       dtxbench --selftest";
  exit 2

(* One instance of the workload's shape: its inputs and its timed runs,
   newest first. *)
type instance = {
  p : Workload.params;
  planned : int;
  scripts : Workload.script list;
  mutable runs : timed list;
}

(* An instance and its inputs, generated before any of its runs is timed. *)
let instance (p : Workload.params) =
  let g0 = Shapes.clock () in
  let frags = Shapes.fragments p (Shapes.generate p) in
  let scripts = Shapes.scripts p frags in
  Printf.printf "inputs: instance seed %d, %d transactions generated in %.2f s, digest %s\n%!"
    p.seed (Shapes.planned p)
    (Shapes.secs_between g0 (Shapes.clock ()))
    (Shapes.digest p scripts);
  { p; planned = Shapes.planned p; scripts; runs = [] }

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let measure ~name ~seed ~seconds ~trace ~commit =
  let ps =
    match Shapes.instances name ~seed with
    | Some ps -> ps
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " Shapes.names);
      exit 2
  in
  let p0 = List.hd ps in
  Printf.printf "host: cores=%d ocaml=%s commit=%s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version commit;
  Printf.printf "env: no DTX_* knob set (shipped defaults, one domain)\n";
  Printf.printf "workload %s: %d instances of %s, %d sites, %d clients x %d txns x %d ops, \
                 %.0f paper-MB, update txns %d%%, retries %d; seed %d\n"
    name (List.length ps) (Protocol.kind_to_string p0.protocol) p0.n_sites p0.n_clients
    p0.txns_per_client p0.ops_per_txn p0.base_size_mb p0.update_txn_pct p0.retries seed;
  let started = Shapes.clock () in
  let elapsed () = Shapes.secs_between started (Shapes.clock ()) in
  let spent = ref 0.0 in
  let run_once inst =
    let r = timed_run inst.p inst.scripts in
    spent := !spent +. r.wall_s;
    inst.runs <- r :: inst.runs;
    Printf.printf "timed run (instance seed %d): %.3f s, %d/%d committed, %.0f words/txn, \
                   set-up %.4f s\n%!"
      inst.p.seed r.wall_s r.virt.committed inst.planned
      (r.alloc_words /. float_of_int (max 1 r.virt.committed))
      (Shapes.setup_s r.setup)
  in
  (* The first round generates each instance's inputs just before its
     first run. The heap's high-water mark is read after the first
     instance's: later inputs and runs would raise it with fragmentation
     whose extent varies from run to run. *)
  let peak_heap_words = ref 0 in
  let insts =
    List.mapi
      (fun i p ->
        let inst = instance p in
        run_once inst;
        if i = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
        inst)
      ps
  in
  (* Further runs, cycling through the instances so that every instance
     samples the host across the whole measurement. *)
  let cycle = Array.of_list insts in
  let n = Array.length cycle in
  let runs = ref n in
  while elapsed () < float_of_int seconds do
    run_once cycle.(!runs mod n);
    incr runs
  done;
  (* Every repeat of an instance must reproduce its first run. *)
  let first inst = List.nth inst.runs (List.length inst.runs - 1) in
  List.iter
    (fun inst ->
      let v = (first inst).virt in
      List.iter
        (fun r ->
          let what = Printf.sprintf "instance seed %d" inst.p.seed in
          check_accounting ~what ~planned:inst.planned ~retries:inst.p.retries r.virt;
          if r.virt <> v then fail "%s: simulated outcome differs between repeats" what;
          if Array.length r.slices <> Array.length (first inst).slices then
            fail "%s: %d timed slices in one repeat, %d in another" what
              (Array.length r.slices) (Array.length (first inst).slices))
        inst.runs)
    insts;
  let fastest inst f = Agg.fastest (List.map f inst.runs) in
  let fastest_wall inst = fastest inst (fun r -> r.wall_s) in
  let slice_wall inst =
    match Agg.fastest_slices (List.map (fun r -> r.slices) inst.runs) with
    | ns -> float_of_int ns *. 1e-9
    | exception Invalid_argument _ -> fastest_wall inst
  in
  (* Set-up: each instance's fastest, then the median over instances. *)
  let setup_figure f = Agg.median (List.map (fun inst -> fastest inst (fun r -> f r.setup)) insts) in
  let per_instance f =
    String.concat " " (List.map (fun inst -> Printf.sprintf "%.3f" (f inst)) insts)
  in
  Printf.printf "timed: %d runs, %.2f s of %.2f s; per instance fastest run %s, \
                 slice-wise fastest %s (%d slices); set-up %.4f s (median over \
                 instances of the fastest)\n%!"
    !runs !spent (elapsed ()) (per_instance fastest_wall) (per_instance slice_wall)
    (Array.length (first (List.hd insts)).slices)
    (setup_figure Shapes.setup_s);
  (* The traced run, on the first instance. *)
  let i0 = List.hd insts in
  let v = (first i0).virt in
  let t = traced_run i0.p i0.scripts in
  let tr = t.tr in
  check_accounting ~what:"traced run" ~planned:i0.planned ~retries:i0.p.retries t.t_virt;
  if t.t_virt <> v then fail "traced run: simulated outcome differs from the timed runs";
  (match t.serializable with
   | Ok () -> ()
   | Error e -> fail "traced run: history not serializable: %s" e);
  if Vec.to_array tr.committed_responses <> v.responses then
    fail "traced run: phase-tracked response times differ from the coordinator's";
  if tr.split_errors > 0 then
    fail "traced run: %d transactions whose phases do not sum to their response time"
      tr.split_errors;
  if tr.admissions <> v.submitted then
    fail "traced run: %d admissions traced for %d submissions" tr.admissions v.submitted;
  Printf.printf "traced run: %.3f s (history check %.2f s: %s), inputs replayed identically: %b\n%!"
    (Tracing.wall_s tr) t.check_s
    (match t.serializable with Ok () -> "serializable" | Error _ -> "NOT serializable")
    (t.t_virt = v);
  (* End-to-end figures, pooled over the instances. *)
  let firsts = List.map (fun inst -> (first inst).virt) insts in
  let planned = sum (fun inst -> inst.planned) insts in
  let committed_n = sum (fun v -> v.committed) firsts in
  let committed = float_of_int committed_n in
  let final_aborts = sum (fun v -> v.aborted) firsts - (sum (fun v -> v.submitted) firsts - planned) in
  let sorted = Array.concat (List.map (fun v -> v.responses) firsts) in
  Array.sort compare sorted;
  let p50 = Agg.percentile sorted ~per_mille:500 in
  let p99 = Agg.percentile sorted ~per_mille:990 in
  let steady = Agg.steady_rate (List.map (fun v -> v.stamps) firsts) in
  Printf.printf "outcome: %d planned, %d committed, %d aborted after retries, %d failed, \
                 %d submissions; %.1f txn/sim-s between the 10%% and 90%% commits\n"
    planned committed_n final_aborts (sum (fun v -> v.failed) firsts)
    (sum (fun v -> v.submitted) firsts) steady;
  Printf.printf "latency: p50 %.3f sim-ms (%d samples, %d above), p99 %.3f sim-ms (%d samples, %d above)\n"
    p50.value p50.samples p50.above p99.value p99.samples p99.above;
  let metrics =
    if not trace then
      [ ( "real_txn_per_s",
          committed /. sumf slice_wall insts,
          "1/s" );
        ( "alloc_words_per_txn",
          sumf (fun inst -> (first inst).alloc_words) insts /. committed,
          "words" );
        ( "peak_heap_mb",
          float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1048576.0,
          "MiB" );
        ("setup_s", setup_figure Shapes.setup_s, "s");
        ("virt_txn_per_s", steady, "1/sim_s");
        ("virt_latency_p50_ms", p50.value, "sim_ms");
        ("virt_latency_p99_ms", p99.value, "sim_ms");
        ("txn_commit_ratio", committed /. float_of_int planned, "ratio") ]
    else begin
      (* Per-layer figures come from the traced instance alone. *)
      let frags = Shapes.fragments i0.p (Shapes.generate i0.p) in
      let l =
        Layers.run ~kind:i0.p.protocol ~frags ~messages:tr.messages
          ~shipped:tr.shipped
          ~fallback_updates:(fun () -> Shapes.extra_updates i0.p frags ~count:200)
      in
      List.iter (fun e -> fail "layer check: %s" e) l.errors;
      let committed = float_of_int v.committed in
      let per_txn x = float_of_int x /. committed in
      let per_ktxn x = float_of_int x *. 1000.0 /. float_of_int v.submitted in
      let bucket i = (Tracing.bucket_names.(i), Agg.Segments.seconds tr.seg i, "s") in
      let shipped = Vec.length tr.shipped in
      let sent kind =
        match List.find_opt (fun (r : Net.traffic) -> r.t_kind = kind) t.traffic with
        | Some r -> r.t_sent
        | None -> 0
      in
      let split i = tr.committed_split.(i) /. committed in
      [ ("sim.events_per_txn", per_txn tr.ticks, "count"); bucket Tracing.dispatch;
        ("net.msgs_per_txn", per_txn v.messages, "count");
        ("net.bytes_per_txn", per_txn v.bytes, "bytes") ]
      @ List.map
          (fun k -> ("net.msgs." ^ Msg.Kind.to_string k, float_of_int (sent k), "count"))
          sent_kinds
      @ [ bucket Tracing.send; ("net.encode_ns", l.encode_ns, "ns");
          ("net.decode_ns", l.decode_ns, "ns"); bucket Tracing.admit;
          bucket Tracing.coord; bucket Tracing.participant;
          ("core.virt_exec_ms", split 0, "sim_ms"); ("core.virt_ship_ms", split 1, "sim_ms");
          ("core.virt_wait_ms", split 2, "sim_ms"); ("core.virt_end_ms", split 3, "sim_ms");
          ("core.attempts_per_commit", per_txn v.submitted, "ratio");
          ( "core.optimistic_op_share",
            float_of_int tr.optimistic_ops /. float_of_int (max 1 shipped), "ratio" );
          ("core.validation_aborts_per_ktxn", per_ktxn v.validation_aborts, "count");
          ( "protocol.cache_hit_ratio",
            float_of_int t.cache_hits /. float_of_int (max 1 t.cache_lookups), "ratio" );
          ( "protocol.lock_requests_per_op",
            float_of_int v.lock_requests /. float_of_int (max 1 t.ops_processed), "count" );
          ("protocol.derive_ns", l.derive_ns, "ns");
          ("locks.grants_per_txn", per_txn tr.grants, "count");
          ( "locks.blocked_op_ratio",
            float_of_int v.blocked_ops /. float_of_int (max 1 t.ops_processed), "ratio" );
          ("locks.deadlock_aborts_per_ktxn", per_ktxn v.deadlock_aborts, "count");
          bucket Tracing.grant; bucket Tracing.release;
          ("locks.acquire_ns", l.acquire_ns, "ns"); bucket Tracing.detector;
          bucket Tracing.exec; ("xpath.select_ns", l.select_ns, "ns");
          ("xpath.nodes_per_query", l.nodes_per_query, "count");
          ("update.apply_ns", l.apply_ns, "ns");
          ("setup.generate_s", setup_figure (fun s -> s.Shapes.generate_s), "s");
          ("setup.fragment_s", setup_figure (fun s -> s.Shapes.fragment_s), "s");
          ("setup.cluster_s", setup_figure (fun s -> s.Shapes.cluster_s), "s");
          ("trace.overhead_ratio", Tracing.wall_s tr /. fastest_wall i0, "ratio");
          ("trace.unattributed_s", Tracing.unattributed_s tr, "s"); bucket Tracing.trace_self ]
    end
  in
  let failed = List.rev !failures in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failed;
  Printf.printf "checks: %s\n" (if failed = [] then "all passed" else "FAILED");
  let all_runs = List.concat_map (fun inst -> inst.runs) insts in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = [])
    (sum (fun inst -> inst.planned * List.length inst.runs) insts)
    (sum (fun r -> r.virt.failed) all_runs)
    (json_metrics metrics);
  if failed <> [] then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--selftest" :: rest -> parse (("selftest", "1") :: acc) rest
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_arg k =
    match Option.bind (get k) int_of_string_opt with Some n -> n | None -> usage ()
  in
  (match dtx_env () with
   | [] -> ()
   | set ->
     Printf.eprintf "refusing to run with DTX_* knobs set (%s): the benchmark \
                     measures the shipped defaults\n"
       (String.concat " " set);
     exit 2);
  (match Selftest.run () with
   | [] -> ()
   | errs ->
     List.iter (fun e -> Printf.eprintf "selftest failed: %s\n" e) (List.rev errs);
     exit 1);
  if get "selftest" <> None then print_endline "selftest: all passed"
  else begin
    let name = match get "workload" with Some n -> n | None -> usage () in
    let seed = int_arg "seed" in
    let seconds = int_arg "seconds" in
    let trace =
      match get "trace" with Some "0" -> false | Some "1" -> true | _ -> usage ()
    in
    if seconds < 1 then usage ();
    measure ~name ~seed ~seconds ~trace
      ~commit:(Option.value (get "commit") ~default:"unknown")
  end
