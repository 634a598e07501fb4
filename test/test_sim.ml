(* Tests for the discrete-event simulator: ordering, determinism,
   cancellation, periodic processes. *)

module Sim = Dtx_sim.Sim

let checkf = Alcotest.(check (float 1e-9))
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_time_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> log := 2 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "fired by time" [ 3; 2; 1 ] !log;
  checkf "clock at last event" 3.0 (Sim.now sim)

let test_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO among equal timestamps"
    [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ] !log

let test_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := "c" :: !log))));
  ignore (Sim.schedule sim ~delay:1.5 (fun () -> log := "b" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "interleaved" [ "c"; "b"; "a" ] !log

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      ignore (Sim.schedule sim ~delay:(-1.0) (fun () -> ())))

let test_schedule_at_past_clamps () =
  let sim = Sim.create () in
  let fired_at = ref (-1.0) in
  ignore
    (Sim.schedule sim ~delay:5.0 (fun () ->
         ignore
           (Sim.schedule_at sim ~time:1.0 (fun () -> fired_at := Sim.now sim))));
  Sim.run sim;
  checkf "clamped to now" 5.0 !fired_at

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let id = Sim.schedule sim ~delay:1.0 (fun () -> fired := true) in
  Sim.cancel sim id;
  Sim.run sim;
  checkb "cancelled event did not fire" false !fired;
  (* Cancelling twice or after drain is harmless. *)
  Sim.cancel sim id

let test_cancel_no_leak () =
  (* Regression: a cancel aimed at an already-fired (or never-firing) event
     used to park its id in the cancelled table forever. *)
  let sim = Sim.create () in
  let id = Sim.schedule sim ~delay:1.0 (fun () -> ()) in
  Sim.run sim;
  Sim.cancel sim id;
  (* fired: no-op, nothing retained *)
  check "no backlog after cancelling fired event" 0 (Sim.cancelled_backlog sim);
  let foreign =
    let other = Sim.create () in
    let last = ref None in
    for _ = 1 to 5 do
      last := Some (Sim.schedule other ~delay:1.0 (fun () -> ()))
    done;
    Option.get !last
  in
  Sim.cancel sim foreign;
  (* id unknown to this simulator: no-op, nothing retained *)
  check "no backlog after cancelling unknown id" 0 (Sim.cancelled_backlog sim);
  let id2 = Sim.schedule sim ~delay:1.0 (fun () -> Alcotest.fail "cancelled") in
  Sim.cancel sim id2;
  check "one pending cancellation" 1 (Sim.cancelled_backlog sim);
  Sim.cancel sim id2;
  (* double cancel counted once *)
  check "double cancel counted once" 1 (Sim.cancelled_backlog sim);
  Sim.run sim;
  check "backlog drained with the queue" 0 (Sim.cancelled_backlog sim)

let test_compaction () =
  (* Mass cancellation must not leave garbage parked until the clock catches
     up: once >= 64 cancellations are pending and they outnumber half the
     queue, the queue is rebuilt without them. *)
  let sim = Sim.create () in
  let fired = ref 0 in
  let ids =
    List.init 200 (fun i ->
        Sim.schedule sim ~delay:(float_of_int (i + 1)) (fun () -> incr fired))
  in
  List.iteri (fun i id -> if i < 150 then Sim.cancel sim id) ids;
  (* The 101st cancel trips 2*101 > 200 and compacts to zero backlog; the
     trailing 49 sit below the 64-cancellation floor. *)
  checkb "compaction ran" true (Sim.cancelled_backlog sim < 64);
  check "leftover below floor" 49 (Sim.cancelled_backlog sim);
  check "live events remain" 99 (Sim.pending sim);
  Sim.run sim;
  check "only uncancelled fired" 50 !fired;
  check "backlog drained" 0 (Sim.cancelled_backlog sim);
  check "queue empty" 0 (Sim.pending sim)

(* A reference dispatcher over the test-side binary heap: the (time, seq)
   contract of {!Sim} spelled out naively — pop the minimum, skip it if
   cancelled, else advance the clock and run it. *)
module Reference = struct
  type ev = { time : float; seq : int; action : unit -> unit }

  type t = {
    mutable clock : float;
    mutable next_seq : int;
    heap : ev Heap.t;
    cancelled : (int, unit) Hashtbl.t;
  }

  let create () =
    let cmp a b =
      let c = compare a.time b.time in
      if c <> 0 then c else compare a.seq b.seq
    in
    { clock = 0.0; next_seq = 0; heap = Heap.create ~cmp;
      cancelled = Hashtbl.create 16 }

  let schedule t ~delay action =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Heap.push t.heap { time = t.clock +. delay; seq; action };
    seq

  let cancel t seq = Hashtbl.replace t.cancelled seq ()

  let rec run t =
    match Heap.pop t.heap with
    | None -> ()
    | Some ev ->
      if not (Hashtbl.mem t.cancelled ev.seq) then begin
        t.clock <- ev.time;
        ev.action ()
      end;
      run t
end

(* The same schedule/cancel script, driven once through [Sim] (calendar
   queue, cancel marks, compaction past 64 cancellations) and once through
   the reference dispatcher, must fire the same actions at the same times in
   the same order. *)
let prop_backends_agree =
  QCheck.Test.make ~name:"calendar and heap backends fire identically"
    ~count:100
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 200) (float_bound_exclusive 50.0))
        small_nat bool)
    (fun (delays, cancel_every, dense) ->
      let script ~schedule ~cancel ~now ~run =
        let log = ref [] in
        let ids =
          List.mapi
            (fun i d ->
              schedule d (fun () ->
                  log := (i, now ()) :: !log;
                  if i mod 7 = 0 then
                    ignore
                      (schedule 1.0 (fun () ->
                           log := (1000 + i, now ()) :: !log))))
            delays
        in
        List.iteri
          (fun i id ->
            (* sparse cancels one id in [cancel_every + 1]; dense cancels
               all the others, enough to trip compaction *)
            if cancel_every > 0 && (i mod (cancel_every + 1) = 0) <> dense
            then cancel id)
          ids;
        run ();
        !log
      in
      let sim = Sim.create () in
      let reference = Reference.create () in
      script
        ~schedule:(fun delay f -> Sim.schedule sim ~delay f)
        ~cancel:(Sim.cancel sim) ~now:(fun () -> Sim.now sim)
        ~run:(fun () -> Sim.run sim)
      = script
          ~schedule:(fun delay f -> Reference.schedule reference ~delay f)
          ~cancel:(Reference.cancel reference)
          ~now:(fun () -> reference.Reference.clock)
          ~run:(fun () -> Reference.run reference))

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Sim.run ~until:5.0 sim;
  check "only events <= 5.0" 5 !count;
  check "rest pending" 5 (Sim.pending sim);
  Sim.run sim;
  check "drained" 10 !count

let test_max_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Sim.schedule sim ~delay:1.0 (fun () -> incr count))
  done;
  Sim.run ~max_events:3 sim;
  check "stopped after 3" 3 !count

let test_step () =
  let sim = Sim.create () in
  checkb "step on empty" false (Sim.step sim);
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> ()));
  checkb "step fires" true (Sim.step sim);
  checkb "then empty" false (Sim.step sim)

let test_every () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  Sim.every sim ~period:10.0 (fun () ->
      incr ticks;
      !ticks < 5);
  Sim.run sim;
  check "stopped after callback returned false" 5 !ticks;
  checkf "last tick time" 50.0 (Sim.now sim)

let test_every_start_offset () =
  let sim = Sim.create () in
  let first = ref (-1.0) in
  Sim.every sim ~period:10.0 ~start:2.0 (fun () ->
      if !first < 0.0 then first := Sim.now sim;
      false);
  Sim.run sim;
  checkf "start offset honoured" 2.0 !first

let prop_deterministic =
  QCheck.Test.make ~name:"same schedule, same trace" ~count:50
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_exclusive 100.0))
    (fun delays ->
      let trace () =
        let sim = Sim.create () in
        let log = ref [] in
        List.iteri
          (fun i d ->
            ignore (Sim.schedule sim ~delay:d (fun () -> log := (i, Sim.now sim) :: !log)))
          delays;
        Sim.run sim;
        !log
      in
      trace () = trace ())

let () =
  Alcotest.run "sim"
    [ ( "events",
        [ Alcotest.test_case "time ordering" `Quick test_time_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          Alcotest.test_case "schedule_at clamps" `Quick test_schedule_at_past_clamps;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel leaks nothing" `Quick test_cancel_no_leak;
          Alcotest.test_case "mass-cancel compaction" `Quick test_compaction;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "max events" `Quick test_max_events;
          Alcotest.test_case "step" `Quick test_step ] );
      ( "periodic",
        [ Alcotest.test_case "every" `Quick test_every;
          Alcotest.test_case "every with start" `Quick test_every_start_offset ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_deterministic;
          QCheck_alcotest.to_alcotest prop_backends_agree ] ) ]
