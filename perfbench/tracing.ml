(* The traced run's observer, attached with [Cluster.attach_tracer]. It
   stamps a monotonic clock at every callback and charges the wall segment
   since the previous callback to a layer bucket chosen by the callback
   that opened the segment; its own work between the two stamps goes to
   the [trace_self] bucket. It also counts events, splits each transaction's
   simulated response time into phase groups and records the messages and
   shipped operations the layer-function timings replay afterwards. *)

module Cluster = Dtx.Cluster
module Coordinator = Dtx.Coordinator
module Msg = Dtx_net.Msg
module Op = Dtx_update.Op
module Vec = Dtx_util.Vec

(* Buckets, named as the per-layer metrics that report them. *)
let dispatch = 0 (* opened by a simulator tick: the action up to its first boundary *)
let send = 1 (* opened by a Net send (or drop) *)
let admit = 2 (* closed by a transaction admission: Coordinator.submit, Optimist.admit *)
let coord = 3 (* opened by a coordinator-bound delivery or a phase change *)
let participant = 4 (* opened by a participant-bound delivery or event *)
let grant = 5 (* shipment start or a grant, closed by the next grant *)
let release = 6 (* opened by a lock release *)
let detector = 7 (* opened by a WFG request/reply or victim delivery *)
let exec = 8 (* from a shipment's last grant to the next boundary *)
let trace_self = 9 (* the callbacks themselves *)

let bucket_names =
  [| "sim.dispatch_s"; "net.send_s"; "core.admit_s"; "core.coord_s";
     "core.participant_s"; "locks.grant_s"; "locks.release_s";
     "locks.detector_s"; "exec.run_s"; "trace.self_s" |]

type opener =
  | O_start
  | O_tick
  | O_send
  | O_coord
  | O_participant
  | O_ship  (* an Op_ship delivery or the participant's Executed event *)
  | O_acquired
  | O_released
  | O_detector

type t = {
  cluster : Cluster.t;
  mutable seg : Agg.Segments.t;
  mutable opener : opener;
  phases : Agg.Phases.t;
  mutable ticks : int;
  mutable grants : int;
  mutable admissions : int;
  mutable pending_done : (float array * float * int) option;
      (* phase split, response, committed count when the Done fired *)
  committed_split : float array;  (* summed over committed transactions *)
  committed_responses : float Vec.t;  (* in commit order *)
  mutable split_errors : int;
  messages : Msg.t Vec.t;  (* every sent message *)
  shipped : (string * Op.t) Vec.t;  (* every shipped operation *)
  mutable optimistic_ops : int;
  mutable stop : int;
}

let create cluster =
  { cluster;
    seg = Agg.Segments.create ~buckets:(Array.length bucket_names) ~start:0;
    opener = O_start;
    phases = Agg.Phases.create ();
    ticks = 0;
    grants = 0;
    admissions = 0;
    pending_done = None;
    committed_split = Array.make Agg.Phases.groups 0.0;
    committed_responses = Vec.create ();
    split_errors = 0;
    messages = Vec.create ();
    shipped = Vec.create ();
    optimistic_ops = 0;
    stop = 0 }

let group_of (p : Coordinator.phase) =
  match p with
  | Executing -> 0
  | Awaiting_replies -> 1
  | Waiting -> 2
  | Preparing | Ending -> 3
  | Done -> invalid_arg "Tracing.group_of: Done"

(* [Done] fires before the coordinator records the outcome, so whether the
   transaction committed shows at the next callback (or at [finish]): the
   committed counter has moved past the value seen at [Done]. *)
let resolve_done t =
  match t.pending_done with
  | None -> ()
  | Some (split, response, committed_before) ->
    t.pending_done <- None;
    if (Cluster.stats t.cluster).Cluster.committed > committed_before then begin
      Array.iteri (fun i x -> t.committed_split.(i) <- t.committed_split.(i) +. x) split;
      Vec.push t.committed_responses response;
      if not (Agg.Phases.sums_to split response) then
        t.split_errors <- t.split_errors + 1
    end

let participant_bound (m : Msg.t) =
  match m with
  | Op_ship _ | Op_undo _ | Prepare _ | Commit _ | Abort _ | Outcome_reply _ -> true
  | Op_status _ | Vote _ | End_ack _ | Wake _ | Wound _ | Victim _
  | Wfg_request | Wfg_reply _ | Outcome_query _ -> false

let opener_of (ev : Cluster.trace_event) =
  match ev with
  | Tr_tick -> O_tick
  | Tr_net { dir = Send | Drop; _ } -> O_send
  | Tr_net { dir = Deliver; msg = Wfg_request | Wfg_reply _ | Victim _; _ } ->
    O_detector
  | Tr_net { dir = Deliver; msg = Op_ship _; _ } -> O_ship
  | Tr_net { dir = Deliver; msg; _ } ->
    if participant_bound msg then O_participant else O_coord
  | Tr_phase _ -> O_coord
  | Tr_part { ev = Executed _; _ } -> O_ship
  | Tr_part _ -> O_participant
  | Tr_lock { ev = Acquired _; _ } -> O_acquired
  | Tr_lock { ev = Released _ | Cleared; _ } -> O_released

let bucket_of opener ~closer =
  let acquired =
    match closer with Cluster.Tr_lock { ev = Acquired _; _ } -> true | _ -> false
  in
  match closer with
  | Cluster.Tr_phase { from_ = None; _ } -> Some admit
  | _ -> (
    match opener with
    | O_start -> None
    | O_tick -> Some dispatch
    | O_send -> Some send
    | O_coord -> Some coord
    | O_participant -> Some participant
    | O_ship -> Some (if acquired then grant else participant)
    | O_acquired -> Some (if acquired then grant else exec)
    | O_released -> Some release
    | O_detector -> Some detector)

let record t (ev : Cluster.trace_event) ~time =
  match ev with
  | Tr_tick -> t.ticks <- t.ticks + 1
  | Tr_lock { ev = Acquired _; _ } -> t.grants <- t.grants + 1
  | Tr_net { dir = Send; msg; _ } -> (
    Vec.push t.messages msg;
    match msg with
    | Op_ship { ops; _ } ->
      List.iter
        (fun (s : Msg.shipment) ->
          Vec.push t.shipped (s.s_doc, s.s_op);
          if s.s_optimistic then t.optimistic_ops <- t.optimistic_ops + 1)
        ops
    | _ -> ())
  | Tr_phase { txn; from_ = None; _ } ->
    t.admissions <- t.admissions + 1;
    Agg.Phases.admit t.phases ~txn ~time
  | Tr_phase { txn; to_ = Done; _ } ->
    let split, response = Agg.Phases.finish t.phases ~txn ~time in
    t.pending_done <-
      Some (split, response, (Cluster.stats t.cluster).Cluster.committed)
  | Tr_phase { txn; to_; _ } ->
    Agg.Phases.move t.phases ~txn ~time ~group:(group_of to_)
  | Tr_net _ | Tr_lock _ | Tr_part _ -> ()

let callback t ~time ev =
  let now = Shapes.clock () in
  (match bucket_of t.opener ~closer:ev with
   | Some b -> Agg.Segments.charge t.seg ~now ~bucket:b
   | None -> Agg.Segments.skip t.seg ~now);
  resolve_done t;
  record t ev ~time;
  t.opener <- opener_of ev;
  Agg.Segments.charge t.seg ~now:(Shapes.clock ()) ~bucket:trace_self

let start t =
  t.seg <- Agg.Segments.create ~buckets:(Array.length bucket_names) ~start:(Shapes.clock ())

let finish t =
  t.stop <- Shapes.clock ();
  resolve_done t

let wall_s t = Shapes.secs_between t.seg.Agg.Segments.start t.stop

let unattributed_s t = float_of_int (Agg.Segments.unattributed t.seg ~stop:t.stop) *. 1e-9
