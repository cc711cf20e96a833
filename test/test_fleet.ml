(* The distributed estimation fleet and its front door.  Load-bearing
   properties: fleet results are byte-identical to in-process runs at
   any worker count, under worker crashes and dropped results; the
   shard planner's per-chunk counts reassemble exactly; the QoS layer
   (token buckets, two-level deficit-round-robin scheduler) keeps its
   fairness and admission contracts; the codec honours its 16 MiB cap
   exactly at the boundary; and the client's retry schedule is a pure
   function of the request. *)

open Ftqc
module Protocol = Svc.Protocol
module Json = Obs.Json
module Chaos = Mc.Chaos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let toric_est ?(l = 6) ?(p = 0.08) ?(trials = 400) ?(seed = 7) () =
  Protocol.Toric_memory
    { l; p; trials; seed; engine = `Scalar; tile_width = 64 }

let payload_bytes p = Svc.Codec.encode (Protocol.payload_to_json p)

let fresh_socket_path () =
  let f = Filename.temp_file "ftqc_fleet" ".sock" in
  Sys.remove f;
  f

(* ------------------------------------------------ chaos fleet specs *)

let test_chaos_fleet_specs () =
  let specs =
    [
      Chaos.kill_worker ~worker:1 ();
      Chaos.hang_worker ~gen:2 ~nth:3 ~worker:0 ~seconds:1.5 ();
      Chaos.drop_result ~worker:2 ~nth:1 ();
    ]
  in
  let s = Chaos.fleet_list_to_string specs in
  check_str "printed form" "kill@1.0.0;hang:1.5@0.2.3;drop@2.0.1" s;
  (match Chaos.fleet_list_of_string s with
  | Ok back -> check "roundtrip" true (back = specs)
  | Error m -> Alcotest.fail m);
  (match Chaos.fleet_list_of_string "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty spec list must parse to []");
  List.iter
    (fun bad ->
      match Chaos.fleet_of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted bad spec %S" bad)
      | Error _ -> ())
    [ ""; "boom@1.0.0"; "kill@1.0"; "hang@1.0.0"; "hang:x@1.0.0";
      "hang:-1@1.0.0"; "kill@a.b.c"; "kill" ]

(* -------------------------------------------------------------- qos *)

let test_qos_limiter () =
  let l = Svc.Qos.limiter (Svc.Qos.limit ~rate:1.0 ~burst:2.0) in
  check "burst token 1" true (Svc.Qos.admit l ~tenant:"a" ~now:0.0 = `Ok);
  check "burst token 2" true (Svc.Qos.admit l ~tenant:"a" ~now:0.0 = `Ok);
  (match Svc.Qos.admit l ~tenant:"a" ~now:0.0 with
  | `Retry_after s ->
    check "empty bucket refills in exactly 1/rate" true
      (Float.abs (s -. 1.0) < 1e-9)
  | `Ok -> Alcotest.fail "third request must shed");
  (* buckets are per tenant *)
  check "other tenant unaffected" true
    (Svc.Qos.admit l ~tenant:"b" ~now:0.0 = `Ok);
  (* a failed admit spends nothing: one second refills one token *)
  check "refill" true (Svc.Qos.admit l ~tenant:"a" ~now:1.0 = `Ok);
  (match Svc.Qos.admit l ~tenant:"a" ~now:1.0 with
  | `Retry_after s -> check "hint again" true (Float.abs (s -. 1.0) < 1e-9)
  | `Ok -> Alcotest.fail "bucket must be empty again");
  let u = Svc.Qos.limiter Svc.Qos.unlimited in
  for _ = 1 to 64 do
    check "unlimited never sheds" true
      (Svc.Qos.admit u ~tenant:"a" ~now:0.0 = `Ok)
  done

let push_ok q ~tenant ~high ~cost v =
  match Svc.Qos.push q ~tenant ~high ~cost v with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "push rejected below capacity"

let test_qos_priority () =
  let q = Svc.Qos.create ~capacity:16 () in
  push_ok q ~tenant:"a" ~high:false ~cost:1 "a-normal";
  push_ok q ~tenant:"b" ~high:false ~cost:1 "b-normal";
  push_ok q ~tenant:"a" ~high:true ~cost:1 "a-high";
  push_ok q ~tenant:"b" ~high:true ~cost:1 "b-high";
  check_int "depth counts both levels" 4 (Svc.Qos.depth q);
  check "tenant rows" true
    (Svc.Qos.tenants q = [ ("a", 1, 1); ("b", 1, 1) ]);
  let popped = List.init 4 (fun _ -> Option.get (Svc.Qos.pop q)) in
  let is_high s = Filename.check_suffix s "high" in
  (match popped with
  | [ p1; p2; p3; p4 ] ->
    check "high strictly before normal" true
      (is_high p1 && is_high p2 && (not (is_high p3)) && not (is_high p4))
  | _ -> assert false);
  Svc.Qos.close q

let test_qos_drr_fairness () =
  let q = Svc.Qos.create ~capacity:16 () in
  (* a tenant of huge campaigns (cost clamps at 16 quanta) queued
     ahead of a tenant of tiny probes *)
  for i = 1 to 3 do
    push_ok q ~tenant:"big" ~high:false ~cost:10_000_000
      (Printf.sprintf "big%d" i)
  done;
  for i = 1 to 3 do
    push_ok q ~tenant:"small" ~high:false ~cost:1
      (Printf.sprintf "small%d" i)
  done;
  let popped = List.init 6 (fun _ -> Option.get (Svc.Qos.pop q)) in
  let pos p =
    let rec go i = function
      | [] -> Alcotest.fail (p ^ " never dispensed")
      | x :: tl -> if String.equal x p then i else go (i + 1) tl
    in
    go 0 popped
  in
  (* deficit round robin: the probes all clear before the big
     tenant's first job saves up enough deficit *)
  check "small tenant is not starved" true (pos "small3" < pos "big1");
  check "fifo within a tenant" true
    (pos "big1" < pos "big2" && pos "big2" < pos "big3"
    && pos "small1" < pos "small2" && pos "small2" < pos "small3");
  check_int "drained" 0 (Svc.Qos.depth q);
  Svc.Qos.close q;
  check "pop after close+drain is None" true (Svc.Qos.pop q = None)

let test_qos_overload_close () =
  let q = Svc.Qos.create ~capacity:2 () in
  push_ok q ~tenant:"a" ~high:false ~cost:1 1;
  push_ok q ~tenant:"a" ~high:true ~cost:1 2;
  (match Svc.Qos.push q ~tenant:"b" ~high:false ~cost:1 3 with
  | Error `Overloaded -> ()
  | _ -> Alcotest.fail "push above capacity must be `Overloaded");
  Svc.Qos.close q;
  (match Svc.Qos.push q ~tenant:"a" ~high:false ~cost:1 4 with
  | Error `Closed -> ()
  | _ -> Alcotest.fail "push after close must be `Closed");
  (* a closed queue drains (high first) before yielding None *)
  check "drains high entry" true (Svc.Qos.pop q = Some 2);
  check "drains normal entry" true (Svc.Qos.pop q = Some 1);
  check "then None" true (Svc.Qos.pop q = None)

(* ------------------------------------------------- codec boundaries *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let test_codec_at_cap () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter close_quiet [ a; b ])
    (fun () ->
      (* a JSON string of max_frame - 3 'x's encodes to exactly
         max_frame payload bytes (two quotes plus the renderer's
         trailing newline, nothing escaped) *)
      let j = Json.String (String.make (Svc.Codec.max_frame - 3) 'x') in
      let wr = Thread.create (fun () -> Svc.Codec.write a j) () in
      (match Svc.Codec.read b with
      | Ok (j', raw) ->
        check_int "payload exactly at the cap" Svc.Codec.max_frame
          (String.length raw);
        check "roundtrip at the cap" true (j' = j)
      | Error `Closed -> Alcotest.fail "cap-sized frame read as `Closed"
      | Error (`Bad m) -> Alcotest.fail ("cap-sized frame rejected: " ^ m));
      Thread.join wr)

let test_codec_over_cap () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter close_quiet [ a; b ])
    (fun () ->
      (* a length prefix one past the cap is rejected from the header
         alone — no payload byte is ever read *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int (Svc.Codec.max_frame + 1));
      check_int "header written" 4 (Unix.write a hdr 0 4);
      match Svc.Codec.read b with
      | Error (`Bad _) -> ()
      | Ok _ -> Alcotest.fail "oversized frame accepted"
      | Error `Closed -> Alcotest.fail "oversized frame read as `Closed")

let test_codec_partial_vs_closed () =
  (* EOF mid-header is `Bad ... *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  ignore (Unix.write a (Bytes.of_string "\x00\x00") 0 2);
  Unix.close a;
  (match Svc.Codec.read b with
  | Error (`Bad _) -> ()
  | _ -> Alcotest.fail "EOF mid-header must be `Bad");
  Unix.close b;
  (* ... but a clean EOF at a frame boundary is `Closed *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.close a;
  (match Svc.Codec.read b with
  | Error `Closed -> ()
  | _ -> Alcotest.fail "EOF at a frame boundary must be `Closed");
  Unix.close b

(* --------------------------------------------------------- jobq *)

let test_jobq_concurrent () =
  let q = Svc.Jobq.create ~capacity:1024 in
  let mu = Mutex.create () in
  let got = ref [] in
  let consumers =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            let rec go () =
              match Svc.Jobq.pop q with
              | Some v ->
                Mutex.lock mu;
                got := v :: !got;
                Mutex.unlock mu;
                go ()
              | None -> ()
            in
            go ())
          ())
  in
  let producers =
    List.init 4 (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to 99 do
              match Svc.Jobq.push q ((100 * p) + i) with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "push rejected below capacity"
            done)
          ())
  in
  List.iter Thread.join producers;
  Svc.Jobq.close q;
  List.iter Thread.join consumers;
  let sorted = List.sort compare !got in
  check_int "every entry drained exactly once" 400 (List.length sorted);
  List.iteri (fun i v -> check_int "entry" i v) sorted

(* ----------------------------------------------- shard planner *)

(* Every shardable estimator x engine: [(case name, request, expected
   cell count, expected campaign engine tag)], one test case per row.
   Each cell is split at an uneven chunk boundary, so the second
   range's prefill must replay the first range's chunks exactly, and
   the per-cell totals must reassemble to a direct run's bytes. *)
let shard_table =
  let steane engine tile_width =
    Protocol.Steane_memory
      { level = 2; eps = 0.01; rounds = 1; trials = 600; seed = 1; engine;
        tile_width }
  and toric engine tile_width =
    Protocol.Toric_memory
      { l = 6; p = 0.08; trials = 500; seed = 7; engine; tile_width }
  and noisy engine =
    Protocol.Toric_noisy
      { l = 4; rounds = 4; p = 0.02; q = 0.02; trials = 300; seed = 4;
        engine; tile_width = 64 }
  and css engine tile_width =
    Protocol.Css_memory
      { code = "steane7"; eps = 0.05; rounds = 2; trials = 500; seed = 11;
        engine; tile_width }
  in
  [ ("steane scalar shard reassembles", steane `Scalar 64, 1, "scalar");
    ("steane batch shard reassembles", steane `Batch 256, 1, "batch");
    ("toric scalar shard reassembles", toric `Scalar 64, 1, "scalar");
    ("toric batch shard reassembles", toric `Batch 128, 1, "batch");
    ( "shard counts reassemble bit-identically",
      Protocol.Toric_scan
        { ls = [ 4; 6 ]; ps = [ 0.05; 0.1 ]; trials = 400; seed = 3;
          engine = `Scalar; tile_width = 64 },
      4,
      "scalar" );
    ("noisy scalar shard reassembles", noisy `Scalar, 1, "scalar");
    ("noisy batch shard reassembles", noisy `Batch, 1, "batch");
    ( "circuit shard reassembles",
      Protocol.Toric_circuit
        { l = 4; rounds = 4; eps = 0.002; trials = 20; seed = 5;
          engine = `Scalar },
      1,
      "scalar" );
    ("css-memory scalar shard reassembles", css `Scalar 64, 1, "scalar");
    ( "css-memory shard reassembles bit-identically",
      css `Batch 128, 1, "batch" );
    ( "pseudothreshold shard reassembles",
      Protocol.Pseudothreshold
        { eps_list = [ 1e-3; 2e-3 ]; trials = 200; seed = 6 },
      2,
      "scalar" ) ]

let test_exec_shard (est, ncells, tag) () =
  let what = Protocol.to_canonical (Run est) in
  match Svc.Exec.plan est with
  | Whole -> Alcotest.failf "%s must shard" what
  | Sharded cells ->
    check_int (what ^ ": cell count") ncells (List.length cells);
    let totals = Array.make ncells 0 in
    List.iter
      (fun c ->
        check_str (what ^ ": campaign engine") tag
          (Svc.Exec.job_of_cell c).engine;
        let n = Svc.Exec.nchunks c in
        let mid = max 1 (n / 3) in
        let parts =
          Svc.Exec.cell_counts c ~lo:0 ~hi:mid
          @ Svc.Exec.cell_counts c ~lo:mid ~hi:n
        in
        check_int (what ^ ": full chunk coverage") n (List.length parts);
        List.iteri
          (fun i (idx, _) -> check_int (what ^ ": chunk order") i idx)
          parts;
        totals.(c.Svc.Exec.c_index) <-
          List.fold_left (fun acc (_, f) -> acc + f) 0 parts)
      cells;
    check_str
      (what ^ ": assembled bytes match a direct run")
      (payload_bytes (Svc.Exec.execute ~domains:2 est))
      (payload_bytes (Svc.Exec.assemble est ~totals))

(* the rare engine has no chunk ledger: the whole request goes to one
   worker *)
let test_exec_rare_whole () =
  check "a rare request plans Whole" true
    (Svc.Exec.plan (Protocol.Toric_memory
                      { l = 4; p = 0.01; trials = 100; seed = 2;
                        engine = `Rare Protocol.default_rare;
                        tile_width = 64 })
     = Whole)

(* ------------------------------------------- fleet, end to end *)

(* Worker processes are this test binary re-exec'd: test/main.ml
   calls [Svc.Fleet.run_if_worker] before Alcotest runs. *)

let test_fleet_byte_identity () =
  let est = toric_est ~trials:2000 ~seed:9 () in
  let direct = Svc.Exec.execute ~domains:2 est in
  let cfg =
    Svc.Fleet.config ~domains:1 ~hb_interval:0.05 ~restart_backoff:0.05
      ~chaos:
        [
          Chaos.kill_worker ~worker:1 ~nth:1 ();
          Chaos.drop_result ~worker:0 ~nth:0 ();
        ]
      ~size:2 ()
  in
  let fleet = Svc.Fleet.create cfg in
  Fun.protect
    ~finally:(fun () -> Svc.Fleet.shutdown fleet)
    (fun () ->
      let payload = Svc.Fleet.execute fleet est in
      check_str "bytes identical under kill + drop chaos"
        (payload_bytes direct) (payload_bytes payload);
      (* the kill's restart is counted before its backoff sleep, but
         give the supervisor a moment anyway *)
      let rec settle n =
        let s = Svc.Fleet.stats fleet in
        if s.Svc.Fleet.s_restarts >= 1 || n = 0 then s
        else begin
          Thread.delay 0.05;
          settle (n - 1)
        end
      in
      let s = settle 40 in
      check "the killed worker restarted" true (s.Svc.Fleet.s_restarts >= 1);
      check "lost shards were re-dispatched" true
        (s.Svc.Fleet.s_redispatched >= 2);
      check_int "the fleet is whole again" 2 s.Svc.Fleet.s_alive;
      check_int "registry row per slot" 2
        (List.length s.Svc.Fleet.s_workers))

(* An in-process daemon (as in test_svc) with a fleet and a rate
   limit at the front door. *)
let with_server ?fleet ?(limit = Svc.Qos.unlimited) ?(workers = 2)
    ?(max_queue = 8) f =
  Mc.Campaign.reset_stop ();
  let socket = fresh_socket_path () in
  let cfg =
    Svc.Server.config ~workers ~max_queue ~cache_capacity:8 ~domains:2
      ~progress_interval:0.05 ?fleet ~limit ~socket ()
  in
  let obs = Obs.create () in
  let th = Thread.create (fun () -> Svc.Server.run ~obs cfg) () in
  let rec wait n =
    if Sys.file_exists socket then ()
    else if n = 0 then Alcotest.fail "server did not start"
    else begin
      Thread.delay 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  Fun.protect
    ~finally:(fun () ->
      Mc.Campaign.request_stop ();
      Thread.join th;
      Mc.Campaign.reset_stop ();
      check "socket file removed on shutdown" false (Sys.file_exists socket))
    (fun () -> f socket)

(* Served through the daemon with tracing on: the fleet's dispatch
   spans hang off the request's execute span, one per dispatch — the
   killed worker's lost dispatch and its re-dispatch included, under
   distinct ids — and the whole trace validates. *)
let test_server_fleet_status () =
  let est = toric_est ~trials:2000 ~seed:11 () in
  let direct = Svc.Exec.execute ~domains:2 est in
  let fleet =
    Svc.Fleet.config ~domains:1 ~hb_interval:0.05 ~restart_backoff:0.05
      ~chaos:[ Chaos.kill_worker ~worker:0 () ] ~size:2 ()
  in
  let sk = Obs.Trace.sink () in
  Obs.Trace.install (Some sk);
  Fun.protect ~finally:(fun () -> Obs.Trace.install None) @@ fun () ->
  with_server ~fleet (fun socket ->
      match
        Svc.Client.with_connection ~socket (fun fd ->
            let r = Svc.Client.request fd est in
            (* the restart is counted before the lost shard can
               complete elsewhere, but poll a little to be safe *)
            let rec status n =
              match Svc.Client.status fd with
              | Error e -> Alcotest.fail e.Svc.Client.message
              | Ok j -> (
                match Protocol.frame_field j "fleet" with
                | None -> Alcotest.fail "status frame has no fleet section"
                | Some fl -> (
                  match Json.member "restarts" fl with
                  | Some (Json.Int r) when r >= 1 || n = 0 -> fl
                  | _ when n = 0 -> fl
                  | _ ->
                    Thread.delay 0.05;
                    status (n - 1)))
            in
            (r, status 40))
      with
      | Error msg -> Alcotest.fail msg
      | Ok (r, fl) ->
        (match r with
        | Error e -> Alcotest.fail e.Svc.Client.message
        | Ok o ->
          check_str "served fleet bytes match an in-process run"
            (payload_bytes direct)
            (payload_bytes o.Svc.Client.payload));
        let geti k =
          match Json.member k fl with Some (Json.Int i) -> i | _ -> -1
        in
        check_int "fleet size in status" 2 (geti "size");
        check_int "all workers alive" 2 (geti "alive");
        check "restart visible in status" true (geti "restarts" >= 1);
        check "re-dispatch visible in status" true
          (geti "redispatched" >= 1));
  let spans = Obs.Trace.sink_spans sk in
  let fleet_spans =
    List.filter (fun (s : Obs.Trace.span) -> s.cat = "fleet") spans
  in
  let exec_ids =
    List.filter_map
      (fun (s : Obs.Trace.span) ->
        if s.name = "execute" then Some s.id else None)
      spans
  in
  check "fleet dispatch spans recorded" true (fleet_spans <> []);
  List.iter
    (fun (s : Obs.Trace.span) ->
      check (s.name ^ " hangs off the execute span") true
        (List.mem s.parent exec_ids);
      List.iter
        (fun k -> check (s.name ^ " carries " ^ k) true (List.mem_assoc k s.args))
        [ "slot"; "gen"; "cell"; "lo"; "hi"; "outcome" ])
    fleet_spans;
  let outcome o (s : Obs.Trace.span) =
    List.assoc_opt "outcome" s.args = Some (Json.String o)
  in
  check "the killed dispatch is a crashed span" true
    (List.exists (outcome "crashed") fleet_spans);
  check "completed dispatches are done spans" true
    (List.exists (outcome "done") fleet_spans);
  let ids = List.map (fun (s : Obs.Trace.span) -> s.id) fleet_spans in
  check_int "dispatch span ids are distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  match Obs.Trace.validate (Obs.Trace.to_json sk) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fleet trace invalid: %s" e

(* ------------------------------------------------ client retry *)

let test_rate_limit_and_retry () =
  with_server ~limit:(Svc.Qos.limit ~rate:0.001 ~burst:1.0) (fun socket ->
      let est seed = toric_est ~trials:50 ~seed () in
      (match
         Svc.Client.with_connection ~socket (fun fd ->
             Svc.Client.request fd (est 1))
       with
      | Ok (Ok _) -> ()
      | _ -> Alcotest.fail "first request must spend the burst token");
      (match
         Svc.Client.with_connection ~socket (fun fd ->
             Svc.Client.request fd (est 2))
       with
      | Ok (Error e) ->
        check_str "sheds as overloaded" "overloaded" e.Svc.Client.code;
        check "carries a retry-after hint" true
          (match e.Svc.Client.retry_after_s with
          | Some s -> s > 0.0
          | None -> false)
      | _ -> Alcotest.fail "second request must shed");
      (* bounded retry rides the hint, capped; then the error *)
      let sleeps = ref [] in
      (match
         Svc.Client.request_retrying ~retries:2 ~retry_cap:0.01
           ~sleep:(fun s -> sleeps := s :: !sleeps)
           ~socket (est 3)
       with
      | Error e ->
        check_str "still overloaded after retries" "overloaded"
          e.Svc.Client.code
      | Ok _ -> Alcotest.fail "retries cannot outlast a 1000 s refill");
      check_int "one sleep per retry" 2 (List.length !sleeps);
      List.iter (fun s -> check "sleep capped at retry_cap" true (s = 0.01))
        !sleeps;
      (* buckets are per tenant: another tenant passes immediately *)
      match
        Svc.Client.with_connection ~socket (fun fd ->
            Svc.Client.request ~tenant:"other" fd (est 4))
      with
      | Ok (Ok _) -> ()
      | _ -> Alcotest.fail "another tenant must not be throttled")

let test_retry_schedule_deterministic () =
  (* connect failures are retryable; the backoff schedule is a pure
     function of the request hash and attempt number *)
  let socket = fresh_socket_path () in
  let est = toric_est ~seed:5 () in
  let run () =
    let sleeps = ref [] in
    (match
       Svc.Client.request_retrying ~retries:3 ~backoff:0.5
         ~sleep:(fun s -> sleeps := s :: !sleeps)
         ~socket est
     with
    | Error e -> check_str "transport error" "transport" e.Svc.Client.code
    | Ok _ -> Alcotest.fail "connect to a missing socket cannot succeed");
    List.rev !sleeps
  in
  let s1 = run () in
  let s2 = run () in
  check "schedule is deterministic" true (s1 = s2);
  check_int "one sleep per retry" 3 (List.length s1);
  List.iteri
    (fun i s ->
      let base = 0.5 *. Float.of_int (1 lsl i) in
      check "exponential with jitter factor in [0.5, 1)" true
        (s >= 0.5 *. base && s < base))
    s1

(* -------------------------------------------- in-memory ledger *)

let test_campaign_in_memory () =
  let store = Mc.Campaign.in_memory () in
  let job =
    { Mc.Campaign.label = ""; engine = "scalar"; seed = 1; trials = 10;
      chunk = 2 }
  in
  check "empty" true (Mc.Campaign.find store ~job ~chunk:0 = None);
  Mc.Campaign.record store ~job ~chunk:0 ~failures:3;
  Mc.Campaign.record store ~job ~chunk:2 ~failures:1;
  check "finds recorded chunk" true
    (Mc.Campaign.find store ~job ~chunk:2 = Some 1);
  check "gap still missing" true
    (Mc.Campaign.find store ~job ~chunk:1 = None);
  check_int "completed chunks" 2 (Mc.Campaign.completed store ~job);
  check_str "no backing file" "" (Mc.Campaign.file store);
  (* flush is a no-op, not a crash *)
  Mc.Campaign.flush store

let suites =
  [
    ( "fleet",
      [
        Alcotest.test_case "chaos fleet spec roundtrip" `Quick
          test_chaos_fleet_specs;
        Alcotest.test_case "qos token bucket" `Quick test_qos_limiter;
        Alcotest.test_case "qos strict priority" `Quick test_qos_priority;
        Alcotest.test_case "qos drr fairness" `Quick test_qos_drr_fairness;
        Alcotest.test_case "qos overload and close drain" `Quick
          test_qos_overload_close;
        Alcotest.test_case "codec frame at the 16 MiB cap" `Quick
          test_codec_at_cap;
        Alcotest.test_case "codec frame over the cap" `Quick
          test_codec_over_cap;
        Alcotest.test_case "codec partial header vs clean close" `Quick
          test_codec_partial_vs_closed;
        Alcotest.test_case "jobq concurrent push, drain after close" `Quick
          test_jobq_concurrent;
      ]
      @ List.map
          (fun (name, est, ncells, tag) ->
            Alcotest.test_case name `Slow (test_exec_shard (est, ncells, tag)))
          shard_table
      @ [
        Alcotest.test_case "rare request plans whole" `Quick
          test_exec_rare_whole;
        Alcotest.test_case "campaign in-memory ledger" `Quick
          test_campaign_in_memory;
        Alcotest.test_case "fleet byte identity under chaos" `Slow
          test_fleet_byte_identity;
        Alcotest.test_case "served fleet result and status" `Slow
          test_server_fleet_status;
        Alcotest.test_case "rate limit sheds, client retries" `Slow
          test_rate_limit_and_retry;
        Alcotest.test_case "retry schedule is deterministic" `Quick
          test_retry_schedule_deterministic;
      ] );
  ]
