(* The benchmark's workloads, their inputs and the cluster set-up. Inputs
   are generated from the seed before anything is timed, with the
   generators and parameters DTXTester ([Dtx_workload.Workload.run]) uses,
   so a timed run measures DTX rather than the client simulator. *)

module Workload = Dtx_workload.Workload
module Cluster = Dtx.Cluster
module Protocol = Dtx_protocol.Protocol
module Allocation = Dtx_frag.Allocation
module Fragment = Dtx_frag.Fragment
module Generator = Dtx_xmark.Generator
module Queries = Dtx_xmark.Queries
module Doc = Dtx_xml.Doc
module Op = Dtx_update.Op
module Rng = Dtx_util.Rng
module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net

let names = [ "scale-fanout"; "bigdoc-read"; "hotdoc-commute" ]

(* Every run commits at least 1000 transactions, pooled over its
   instances, so its p99 has at least ten samples above it. Each instance
   is kept short, so that a run repeats it many times (see [Dtxbench]). *)
let params name ~seed =
  let d = { Workload.default_params with seed } in
  match name with
  | "scale-fanout" ->
    (* The headline scale configuration: 1000 sites, tiny fragments, little
       blocking; the simulator, the network and the FSM handlers dominate.
       5000 clients x 2 transactions keep the loop closed inside the run
       (every second transaction is admitted by a finishing one) and are
       steadier across seeds than 10000 x 1. *)
    Some
      { d with
        n_sites = 1000; n_clients = 5_000; txns_per_client = 2;
        ops_per_txn = 3; base_size_mb = 10.0;
        replication = Allocation.Partial { copies = 1 } }
  | "bigdoc-read" ->
    (* Read-only over Fig. 10's largest base: XPath evaluation and lock
       derivation dominate, and the derivation cache only hits. *)
    Some
      { d with
        n_sites = 4; n_clients = 100; txns_per_client = 5; ops_per_txn = 5;
        update_txn_pct = 0; base_size_mb = 200.0 }
  | "hotdoc-commute" ->
    (* Writers beside readers on a hot document under Commute: blocking,
       deadlocks, optimistic admission/validation and cache invalidation.
       25 clients x 320 transactions: with 200 clients the run is
       dominated by deadlock pile-ups whose length varies several-fold
       from seed to seed, and with fewer transactions per client the
       pooled p99 moves by a sixth between seeds. *)
    Some
      { d with
        protocol = Protocol.commute; n_sites = 4; n_clients = 25;
        txns_per_client = 320; ops_per_txn = 4; update_txn_pct = 30;
        base_size_mb = 1.0; retries = 3 }
  | _ -> None

(* A run drives four instances of its shape, each with its own document
   and transaction streams drawn from the run's seed, and pools their
   figures: within one instance, contention episodes move tail latency and
   throughput by a fifth or more from seed to seed, and with three the
   pooled simulated throughput and tail latency still moved by a tenth. *)
let instances name ~seed =
  match List.filter_map (fun i -> params name ~seed:((seed * 16) + i)) (List.init 4 Fun.id) with
  | [] -> None
  | ps -> Some ps

let planned (p : Workload.params) = p.n_clients * p.txns_per_client

(* --- database and cluster ------------------------------------------------- *)

(* The same base [Workload.build_database] makes. *)
let generate (p : Workload.params) =
  Generator.generate ~name:"xmark"
    (Generator.params_of_mb ~seed:(p.seed + 1) p.base_size_mb)

let parts (p : Workload.params) =
  if p.n_fragments > 0 then p.n_fragments else p.n_sites

let fragments p base = Array.of_list (Fragment.fragment base ~parts:(parts p))

type setup_times = { generate_s : float; fragment_s : float; cluster_s : float }

let setup_s t = t.generate_s +. t.fragment_s +. t.cluster_s

let clock () = Int64.to_int (Monotonic_clock.now ())

let secs_between a b = float_of_int (b - a) *. 1e-9

(* XMark generation + fragmentation + allocation + [Cluster.create], each
   timed: the set-up a user pays before the first transaction. *)
let setup (p : Workload.params) =
  let t0 = clock () in
  let base = generate p in
  let t1 = clock () in
  let frags = fragments p base in
  let t2 = clock () in
  let placements =
    Allocation.allocate ~n_sites:p.n_sites p.replication (Array.to_list frags)
  in
  let sim = Sim.create () in
  let net = Net.of_config ~sim p.net_config in
  let config =
    { (Cluster.default_config ~protocol:p.protocol ()) with
      deadlock_period_ms = p.deadlock_period_ms }
  in
  let cluster = Cluster.create ~sim ~net ~n_sites:p.n_sites config ~placements in
  Cluster.shutdown_when_idle cluster;
  let t3 = clock () in
  ( cluster,
    { generate_s = secs_between t0 t1; fragment_s = secs_between t1 t2;
      cluster_s = secs_between t2 t3 } )

(* --- inputs ----------------------------------------------------------------- *)

(* [Workload.gen_transaction]: one update-or-read choice per transaction,
   then per operation a fragment and a generated query or update. *)
let gen_txn (p : Workload.params) rng frags fresh =
  let update_txn = Rng.pct rng p.update_txn_pct in
  List.init p.ops_per_txn (fun _ ->
      let doc = Rng.pick rng frags in
      let op =
        if update_txn && Rng.pct rng p.update_op_pct then
          Queries.gen_update rng ~fresh doc
        else Queries.gen_query rng doc
      in
      (doc.Doc.name, op))

(* One script per client, each client on its own [Rng.split] stream of the
   master seed, coordinated by site [client mod n_sites] — as in
   [Workload.run]. Inserted-entity numbers come from one counter, drawn in
   client order. *)
let scripts (p : Workload.params) frags =
  let master = Rng.create p.seed in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    !counter
  in
  let rngs = Array.make p.n_clients master in
  for i = 0 to p.n_clients - 1 do
    rngs.(i) <- Rng.split master
  done;
  List.init p.n_clients (fun i ->
      let txns = ref [] in
      for _ = 1 to p.txns_per_client do
        txns := gen_txn p rngs.(i) frags fresh :: !txns
      done;
      { Workload.sc_client = i; sc_coordinator = i mod p.n_sites;
        sc_txns = List.rev !txns })

(* Digest of the seed and every operation's text, in submission order: two
   runs or two commits that print the same digest drove identical inputs. *)
let digest (p : Workload.params) scripts =
  let b = Buffer.create 4096 in
  Buffer.add_string b (string_of_int p.seed);
  List.iter
    (fun (sc : Workload.script) ->
      Buffer.add_string b (Printf.sprintf "\nclient %d@%d" sc.sc_client sc.sc_coordinator);
      List.iter
        (fun txn ->
          Buffer.add_string b "\ntxn";
          List.iter
            (fun (doc, op) ->
              Buffer.add_char b '\n';
              Buffer.add_string b doc;
              Buffer.add_char b ' ';
              Buffer.add_string b (Op.to_string op))
            txn)
        sc.sc_txns)
    scripts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Update operations drawn from the seed for layer timings on a workload
   that issued none (the read-only shape), so [update.apply_ns] is always
   measured on real generated updates. *)
let extra_updates (p : Workload.params) frags ~count =
  let rng = Rng.create (p.seed + 2) in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    !counter
  in
  List.init count (fun _ ->
      let doc = Rng.pick rng frags in
      (doc.Doc.name, Queries.gen_update rng ~fresh doc))
