(* Layer functions timed on the inputs the traced run recorded, after that
   run and never inside a timed one. Each timing is the median over
   [passes] of the mean nanoseconds per recorded input. Replaying real
   inputs also checks each layer: the codec round-trips every message,
   every footprint is grantable on an empty table, and undo restores the
   document an update changed. *)

module Msg = Dtx_net.Msg
module Protocol = Dtx_protocol.Protocol
module Table = Dtx_locks.Table
module Eval = Dtx_xpath.Eval
module Exec = Dtx_update.Exec
module Op = Dtx_update.Op
module Doc = Dtx_xml.Doc
module Vec = Dtx_util.Vec

let passes = 3

(* At most [cap] items, evenly strided through the recording, in order. *)
let sample vec ~cap =
  let n = Vec.length vec in
  if n <= cap then Vec.to_array vec
  else Array.init cap (fun i -> Vec.get vec (i * (n / cap)))

(* [prepare] runs untimed before each pass and hands [f] its context. *)
let ns_per_item items ~prepare f =
  let n = Array.length items in
  if n = 0 then invalid_arg "Layers.ns_per_item: nothing recorded";
  Agg.median
    (List.init passes (fun _ ->
         let ctx = prepare () in
         let t0 = Shapes.clock () in
         Array.iter (fun x -> f ctx x) items;
         let t1 = Shapes.clock () in
         float_of_int (t1 - t0) /. float_of_int n))

type result = {
  encode_ns : float;
  decode_ns : float;
  derive_ns : float;
  acquire_ns : float;
  select_ns : float;
  nodes_per_query : float;
  apply_ns : float;
  errors : string list;  (* failed layer checks *)
}

let run ~kind ~(frags : Doc.t array) ~(messages : Msg.t Vec.t)
    ~(shipped : (string * Op.t) Vec.t) ~(fallback_updates : unit -> (string * Op.t) list) =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let doc_of =
    let tbl = Hashtbl.create (Array.length frags) in
    Array.iter (fun (d : Doc.t) -> Hashtbl.replace tbl d.Doc.name d) frags;
    fun name ->
      match Hashtbl.find_opt tbl name with
      | Some d -> d
      | None -> invalid_arg ("Layers: unknown fragment " ^ name)
  in
  (* Msg codec. *)
  let msgs = sample messages ~cap:20_000 in
  let encoded = Array.map Msg.encode msgs in
  Array.iteri
    (fun i s ->
      match Msg.decode s with
      | Ok m when Msg.encode m = s -> ()
      | Ok _ -> fail "codec: message %d re-encodes differently" i
      | Error e -> fail "codec: message %d does not decode: %s" i e)
    encoded;
  let encode_ns = ns_per_item msgs ~prepare:ignore (fun () m -> ignore (Msg.encode m)) in
  let decode_ns =
    ns_per_item encoded ~prepare:ignore (fun () s -> ignore (Msg.decode s))
  in
  (* Lock derivation against the initial fragments, in shipment order so
     repeated operations hit the derivation cache as they did in the run. *)
  let ops = sample shipped ~cap:5_000 in
  let fresh_protocol () =
    let p = Protocol.create kind in
    Array.iter (Protocol.add_doc p) frags;
    p
  in
  let footprints =
    let p = fresh_protocol () in
    Array.map
      (fun (doc, op) ->
        match Protocol.lock_requests p ~doc op with
        | Ok (reqs, _) -> reqs
        | Error e ->
          fail "derive: %s" e;
          [])
      ops
  in
  let derive_ns =
    ns_per_item ops ~prepare:fresh_protocol (fun p (doc, op) ->
        ignore (Protocol.lock_requests p ~doc op))
  in
  (* Lock table: grant a footprint on an otherwise empty table, release it. *)
  let indexed = Array.mapi (fun i fp -> (i, fp)) footprints in
  let acquire_ns =
    ns_per_item indexed ~prepare:Table.create (fun tbl (txn, fp) ->
        (match Table.acquire_all tbl ~txn fp with
         | Ok () -> ()
         | Error _ -> fail "locks: footprint %d refused on an empty table" txn);
        ignore (Table.release_txn tbl ~txn))
  in
  (* XPath on the recorded queries. *)
  let queries =
    let v = Vec.create () in
    Vec.iter
      (fun (doc, op) ->
        match op with Op.Query path -> Vec.push v (doc_of doc, path) | _ -> ())
      shipped;
    sample v ~cap:1_000
  in
  let select_ns =
    ns_per_item queries ~prepare:ignore (fun () (d, path) -> ignore (Eval.select d path))
  in
  let nodes_per_query =
    Array.fold_left (fun acc (d, path) -> acc + Eval.nodes_visited d path) 0 queries
    |> fun total -> float_of_int total /. float_of_int (Array.length queries)
  in
  (* Updates: apply then undo on private clones, which must come back
     identical to the fragments they were cloned from. *)
  let updates =
    let v = Vec.create () in
    Vec.iter (fun ((_, op) as x) -> if Op.is_update op then Vec.push v x) shipped;
    if Vec.is_empty v then List.iter (Vec.push v) (fallback_updates ());
    sample v ~cap:1_000
  in
  let clones () =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun (doc, _) ->
        if not (Hashtbl.mem tbl doc) then Hashtbl.replace tbl doc (Doc.clone (doc_of doc)))
      updates;
    tbl
  in
  let apply_undo tbl (doc, op) =
    let d = Hashtbl.find tbl doc in
    match Exec.apply d op with
    | Ok eff -> ignore (Exec.undo d eff.Exec.undo)
    | Error _ -> ()
  in
  let apply_ns = ns_per_item updates ~prepare:clones apply_undo in
  let tbl = clones () in
  Array.iter (apply_undo tbl) updates;
  Hashtbl.iter
    (fun name d ->
      if not (Doc.equal_structure d (doc_of name)) then
        fail "update: undo left %s different from its fragment" name)
    tbl;
  { encode_ns; decode_ns; derive_ns; acquire_ns; select_ns; nodes_per_query;
    apply_ns; errors = List.rev !errors }
