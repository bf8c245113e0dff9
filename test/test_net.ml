(* Tests for hermes.net: reliability, per-link FIFO, cross-link races,
   and the pruned link state against the network that kept every link. *)

open Hermes_kernel
module Engine = Hermes_sim.Engine
module Network = Hermes_net.Network
module Obs = Hermes_obs.Obs
module Registry = Hermes_obs.Registry

let a = Site.of_int 0
let b = Site.of_int 1

let make ?(config = Network.default_config) ?(seed = 1) () =
  let engine = Engine.create () in
  let net = Network.create ~engine ~rng:(Rng.create ~seed) ~config () in
  (engine, net)

let test_delivery () =
  let engine, net = make () in
  let got = ref None in
  Network.register net (Wire.Agent a) (fun m -> got := Some m);
  Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent a) ~gid:1 (Wire.Begin { epoch = 0 });
  Engine.run engine;
  match !got with
  | Some { Wire.payload = Wire.Begin _; gid = 1; _ } -> ()
  | _ -> Alcotest.fail "message not delivered"

let test_per_link_fifo () =
  (* Heavy jitter, many messages on one link: arrival order = send order. *)
  let engine, net = make ~config:{ Network.default_config with base_delay = 100; jitter = 5_000 } () in
  let got = ref [] in
  Network.register net (Wire.Agent a) (fun m -> got := m.Wire.gid :: !got);
  for i = 1 to 50 do
    Network.send net ~src:(Wire.Coordinator 7) ~dst:(Wire.Agent a) ~gid:i (Wire.Begin { epoch = 0 })
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "FIFO" (List.init 50 (fun i -> i + 1)) (List.rev !got)

let test_cross_link_races_happen () =
  (* Two senders to the same destination: with jitter, later sends can
     arrive earlier — the §5.3 COMMIT-overtakes-PREPARE race. *)
  let engine, net = make ~config:{ Network.default_config with base_delay = 100; jitter = 2_000 } ~seed:3 () in
  let got = ref [] in
  Network.register net (Wire.Agent a) (fun m -> got := m.Wire.gid :: !got);
  let overtaken = ref false in
  for i = 1 to 40 do
    Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent a) ~gid:(2 * i) (Wire.Begin { epoch = 0 });
    Network.send net ~src:(Wire.Coordinator 2) ~dst:(Wire.Agent a) ~gid:((2 * i) + 1) (Wire.Begin { epoch = 0 })
  done;
  Engine.run engine;
  (* If any odd gid (sent second in its pair) arrives before its even
     partner, a race happened. *)
  let arrival = List.rev !got in
  List.iteri
    (fun pos gid ->
      if gid mod 2 = 1 then
        let partner = gid - 1 in
        let partner_pos = Option.get (List.find_index (Int.equal partner) arrival) in
        if pos < partner_pos then overtaken := true)
    arrival;
  Alcotest.(check bool) "some cross-link overtaking" true !overtaken

let test_no_handler_fails () =
  let engine, net = make () in
  Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent b) ~gid:1 (Wire.Begin { epoch = 0 });
  Alcotest.(check bool) "raises" true
    (try
       Engine.run engine;
       false
     with Failure _ -> true)

let test_counters () =
  let engine, net = make () in
  Network.register net (Wire.Agent a) ignore;
  for _ = 1 to 5 do
    Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent a) ~gid:1 Wire.Ready
  done;
  Alcotest.(check int) "sent" 5 (Network.sent net);
  Engine.run engine;
  Alcotest.(check int) "delivered" 5 (Network.delivered net)

let faults_config faults = { Network.default_config with faults }

let test_drop_all () =
  (* drop = 1.0: every send is a counted drop, the handler never runs. *)
  let engine, net = make ~config:(faults_config { Network.no_faults with drop = 1.0 }) () in
  let got = ref 0 in
  Network.register net (Wire.Agent a) (fun _ -> incr got);
  for i = 1 to 7 do
    Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent a) ~gid:i (Wire.Begin { epoch = 0 })
  done;
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "all dropped" 7 (Network.dropped net);
  Alcotest.(check int) "delivered counter" 0 (Network.delivered net)

let test_duplicate_all () =
  (* dup = 1.0: every message arrives exactly twice, in FIFO order. *)
  let engine, net = make ~config:(faults_config { Network.no_faults with dup = 1.0 }) () in
  let got = ref [] in
  Network.register net (Wire.Agent a) (fun m -> got := m.Wire.gid :: !got);
  for i = 1 to 5 do
    Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent a) ~gid:i (Wire.Begin { epoch = 0 })
  done;
  Engine.run engine;
  Alcotest.(check int) "duplicated counter" 5 (Network.duplicated net);
  Alcotest.(check (list int)) "each delivered twice, in order"
    [ 1; 1; 2; 2; 3; 3; 4; 4; 5; 5 ]
    (List.rev !got)

let test_down_site_drops () =
  (* Deliveries to a down destination are counted drops, not failures —
     including messages already in flight when the site goes down. *)
  let engine, net = make () in
  let got = ref 0 in
  Network.register net (Wire.Agent a) (fun _ -> incr got);
  Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent a) ~gid:1 Wire.Commit;
  Network.mark_down net (Wire.Agent a);
  Alcotest.(check bool) "lossy once a site is down" true (Network.lossy net);
  Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent a) ~gid:2 Wire.Commit;
  Engine.run engine;
  Alcotest.(check int) "nothing delivered while down" 0 !got;
  Alcotest.(check int) "both counted drops" 2 (Network.dropped net);
  Network.mark_up net (Wire.Agent a);
  Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent a) ~gid:3 Wire.Commit;
  Engine.run engine;
  Alcotest.(check int) "delivered after reboot" 1 !got

(* Regression for the overtaking under-count: the old detector compared
   only the single most recent in-flight arrival, so one late message
   overtaking k earlier ones counted at most once. The counter must
   equal the inversion count of the delivery order w.r.t. send order. *)
let inversions order =
  let arr = Array.of_list order in
  let n = Array.length arr in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if arr.(i) > arr.(j) then incr count
    done
  done;
  !count

let test_overtake_counts_all () =
  let module Obs = Hermes_obs.Obs in
  let module Registry = Hermes_obs.Registry in
  let engine = Engine.create () in
  let obs = Obs.create () in
  let net =
    Network.create ~engine ~rng:(Rng.create ~seed:11) ~obs
      ~config:{ Network.default_config with base_delay = 100; jitter = 4_000 }
      ()
  in
  let got = ref [] in
  Network.register net (Wire.Agent a) (fun m -> got := m.Wire.gid :: !got);
  (* Many senders, one destination: gid = send order. *)
  for i = 1 to 30 do
    Network.send net ~src:(Wire.Coordinator i) ~dst:(Wire.Agent a) ~gid:i (Wire.Begin { epoch = 0 })
  done;
  Engine.run engine;
  let order = List.rev !got in
  let expected = inversions order in
  Alcotest.(check bool) "scenario actually races" true (expected > 1);
  Alcotest.(check int) "every overtaken message counted" expected
    (Registry.sum_counter (Obs.metrics obs) "net.overtakes")

let prop_fifo_always =
  QCheck.Test.make ~name:"per-link FIFO holds for any seed/jitter" ~count:50
    QCheck.(pair (int_bound 1000) (int_bound 3000))
    (fun (seed, jitter) ->
      let engine, net = make ~config:{ Network.default_config with base_delay = 10; jitter } ~seed () in
      let got = ref [] in
      Network.register net (Wire.Agent a) (fun m -> got := m.Wire.gid :: !got);
      for i = 1 to 20 do
        Network.send net ~src:(Wire.Coordinator 1) ~dst:(Wire.Agent a) ~gid:i (Wire.Begin { epoch = 0 })
      done;
      Engine.run engine;
      List.rev !got = List.init 20 (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* Against the network that kept every link                           *)
(* ------------------------------------------------------------------ *)

(* The network as it was before its link state was bounded: a FIFO
   clamp entry for every link ever used, and in-flight records kept
   whether or not an [Obs] is attached. Kept verbatim as the reference,
   less the fabric, gray links and logging, which the
   property below does not drive. *)
module Network_reference = struct
  module Tracer = Hermes_obs.Tracer
  module Histogram = Hermes_obs.Histogram

  (* The address hash the network used before it keyed its tables on
     packed addresses. *)
  let hash_address =
    let spread h = h + (h lsr 5) in
    function
    | Wire.Coordinator gid -> spread (gid * 3)
    | Wire.Agent s -> spread ((Site.to_int s * 3) + 1)
    | Wire.Acceptor { gid; idx } -> spread ((((gid * 31) + idx) * 3) + 2)

  module Addr_tbl = Hashtbl.Make (struct
    type t = Wire.address

    let equal = Wire.equal_address
    let hash = hash_address
  end)

  module Link_tbl = Hashtbl.Make (struct
    type t = Wire.address * Wire.address

    let equal (s, d) (s', d') = Wire.equal_address s s' && Wire.equal_address d d'
    let hash (s, d) = (hash_address s * 65599) + hash_address d
  end)

  type t = {
    engine : Engine.t;
    rng : Rng.t;
    config : Network.config;
    handlers : (Wire.t -> unit) Addr_tbl.t;
    last_delivery : Time.t Link_tbl.t;
    in_flight : (Time.t * int) list Addr_tbl.t;
    down : unit Addr_tbl.t;
    obs : Obs.t option;
    delay_hist : Histogram.t option;
    overtakes : Registry.Counter.t option;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable duplicated : int;
  }

  let create ~engine ~rng ?obs ~config () =
    {
      engine;
      rng;
      config;
      handlers = Addr_tbl.create 32;
      last_delivery = Link_tbl.create 64;
      in_flight = Addr_tbl.create 32;
      down = Addr_tbl.create 4;
      obs;
      delay_hist = Option.map (fun o -> Registry.histogram (Obs.metrics o) "net.delay") obs;
      overtakes = Option.map (fun o -> Registry.counter (Obs.metrics o) "net.overtakes") obs;
      sent = 0;
      delivered = 0;
      dropped = 0;
      duplicated = 0;
    }

  let register t addr handler = Addr_tbl.replace t.handlers addr handler
  let mark_down t addr = Addr_tbl.replace t.down addr ()
  let mark_up t addr = Addr_tbl.remove t.down addr
  let is_down t addr = Addr_tbl.mem t.down addr

  let count_drop t ~at ~dst ~gid ~reason =
    t.dropped <- t.dropped + 1;
    Obs.emit t.obs ~at (fun () ->
        Tracer.Message_dropped { dst = Fmt.str "%a" Wire.pp_address dst; gid; reason })

  let purge_in_flight t dst ~arrival ~gid =
    match Addr_tbl.find_opt t.in_flight dst with
    | None -> ()
    | Some l ->
        let rec drop_one = function
          | [] -> []
          | (a, g) :: rest when Time.equal a arrival && Int.equal g gid -> rest
          | e :: rest -> e :: drop_one rest
        in
        (match drop_one l with
        | [] -> Addr_tbl.remove t.in_flight dst
        | l' -> Addr_tbl.replace t.in_flight dst l')

  let intake t msg ~arrival =
    let { Wire.dst; gid; _ } = msg in
    let now = Engine.now t.engine in
    let inbound = Option.value (Addr_tbl.find_opt t.in_flight dst) ~default:[] in
    List.iter
      (fun (behind_arrival, behind_gid) ->
        if Time.(behind_arrival > arrival) then begin
          (match t.overtakes with Some c -> Registry.Counter.incr c | None -> ());
          Obs.emit t.obs ~at:now (fun () ->
              Tracer.Overtaking { dst = Fmt.str "%a" Wire.pp_address dst; gid; behind_gid })
        end)
      inbound;
    Addr_tbl.replace t.in_flight dst ((arrival, gid) :: inbound);
    Engine.schedule_unit t.engine ~delay:(Time.diff arrival now) (fun () ->
        purge_in_flight t dst ~arrival ~gid;
        if is_down t dst then count_drop t ~at:arrival ~dst ~gid ~reason:"down"
        else begin
          t.delivered <- t.delivered + 1;
          match Addr_tbl.find_opt t.handlers dst with
          | Some handler -> handler msg
          | None ->
              Fmt.failwith "Network.send: no handler for %a (message %a)" Wire.pp_address dst
                Wire.pp msg
        end)

  let transmit t msg ~now =
    let { Wire.src; dst; _ } = msg in
    let delay =
      t.config.base_delay + if t.config.jitter > 0 then Rng.int t.rng ~bound:(t.config.jitter + 1) else 0
    in
    let arrival =
      let earliest = Time.add now delay in
      match Link_tbl.find_opt t.last_delivery (src, dst) with
      | Some last when Time.(last >= earliest) -> Time.add last 1
      | _ -> earliest
    in
    Link_tbl.replace t.last_delivery (src, dst) arrival;
    (match t.delay_hist with Some h -> Histogram.record h (Time.diff arrival now) | None -> ());
    intake t msg ~arrival

  let send t ~src ~dst ~gid payload =
    let msg = { Wire.src; dst; gid; payload } in
    t.sent <- t.sent + 1;
    let now = Engine.now t.engine in
    let faults = t.config.faults in
    if faults.drop > 0. && Rng.bool t.rng ~p:faults.drop then
      count_drop t ~at:now ~dst ~gid ~reason:"drop"
    else begin
      transmit t msg ~now;
      if faults.dup > 0. && Rng.bool t.rng ~p:faults.dup then begin
        t.duplicated <- t.duplicated + 1;
        Obs.emit t.obs ~at:now (fun () ->
            Tracer.Message_duplicated { dst = Fmt.str "%a" Wire.pp_address dst; gid });
        transmit t msg ~now
      end
    end
end

(* A random run: after each gap, one send, or an agent going down or
   coming back up. Coordinators are short-lived: the i-th step's
   coordinator is one of four around gid i/4, so the run uses hundreds of
   (coordinator, site) links, each only briefly. *)
type net_act = Send of Wire.address * Wire.address | Down of int | Up of int

type net_case = {
  base_delay : int;
  jitter : int;
  drop : float;
  dup : float;
  with_obs : bool;
  seed : int;
  steps : (int * net_act) list;  (* gap in ticks before the act, act *)
}

let n_agents = 4

let gen_net_case =
  let open QCheck.Gen in
  let* base_delay = oneofl [ 0; 1; 10; 100 ] in
  let* jitter = oneofl [ 0; 50; 5_000; 20_000 ] in
  let* drop = oneofl [ 0.; 0.05 ] in
  let* dup = oneofl [ 0.; 0.1 ] in
  let* with_obs = bool in
  let* seed = int_bound 10_000 in
  let* len = int_range 1 600 in
  let step i =
    let* gap = frequency [ (3, return 0); (4, int_bound 20); (2, int_bound 200) ] in
    let* coord = map (fun o -> Wire.Coordinator ((i / 4) + o)) (int_bound 3) in
    let* agent = map (fun s -> Wire.Agent (Site.of_int s)) (int_bound (n_agents - 1)) in
    let* act =
      frequency
        [
          (45, return (Send (coord, agent)));
          (45, return (Send (agent, coord)));
          (5, map (fun s -> Send (agent, Wire.Agent (Site.of_int s))) (int_bound (n_agents - 1)));
          (3, map (fun s -> Down s) (int_bound (n_agents - 1)));
          (2, map (fun s -> Up s) (int_bound (n_agents - 1)));
        ]
    in
    return (gap, act)
  in
  let+ steps = flatten_l (List.init len step) in
  { base_delay; jitter; drop; dup; with_obs; seed; steps }

let print_net_case c =
  let act = function
    | Send (s, d) -> Fmt.str "%a>%a" Wire.pp_address s Wire.pp_address d
    | Down s -> Printf.sprintf "down%d" s
    | Up s -> Printf.sprintf "up%d" s
  in
  Printf.sprintf "base=%d jitter=%d drop=%g dup=%g obs=%b seed=%d [%s]" c.base_delay c.jitter
    c.drop c.dup c.with_obs c.seed
    (String.concat "; " (List.map (fun (g, a) -> Printf.sprintf "+%d %s" g (act a)) c.steps))

(* What a run shows from outside: every delivery with its time, the
   counters, and [net.overtakes] when observed. *)
type net_outcome = {
  deliveries : (int * Wire.address * Wire.address * int) list;
  counters : int * int * int * int;  (* sent, delivered, dropped, duplicated *)
  overtakes : int;
}

module type NET = sig
  type t

  val create : engine:Engine.t -> rng:Rng.t -> ?obs:Obs.t -> config:Network.config -> unit -> t
  val register : t -> Wire.address -> (Wire.t -> unit) -> unit
  val send : t -> src:Wire.address -> dst:Wire.address -> gid:int -> Wire.payload -> unit
  val mark_down : t -> Wire.address -> unit
  val mark_up : t -> Wire.address -> unit
  val counters : t -> int * int * int * int
end

module Play (N : NET) = struct
  let play c =
    let engine = Engine.create () in
    let obs = if c.with_obs then Some (Obs.create ()) else None in
    let config =
      {
        Network.base_delay = c.base_delay;
        jitter = c.jitter;
        faults = { Network.no_faults with drop = c.drop; dup = c.dup };
      }
    in
    let net = N.create ~engine ~rng:(Rng.create ~seed:c.seed) ?obs ~config () in
    let log = ref [] in
    let record (m : Wire.t) =
      log := (Time.to_int (Engine.now engine), m.src, m.dst, m.gid) :: !log
    in
    for s = 0 to n_agents - 1 do
      N.register net (Wire.Agent (Site.of_int s)) record
    done;
    for g = 0 to (List.length c.steps / 4) + 3 do
      N.register net (Wire.Coordinator g) record
    done;
    ignore
      (List.fold_left
         (fun (at, i) (gap, act) ->
           let at = at + gap in
           Engine.schedule_unit engine ~delay:at (fun () ->
               match act with
               | Send (src, dst) -> N.send net ~src ~dst ~gid:i Wire.Commit
               | Down s -> N.mark_down net (Wire.Agent (Site.of_int s))
               | Up s -> N.mark_up net (Wire.Agent (Site.of_int s)));
           (at, i + 1))
         (0, 0) c.steps);
    Engine.run engine;
    ( net,
      {
        deliveries = List.rev !log;
        counters = N.counters net;
        overtakes =
          Option.fold ~none:0 ~some:(fun o -> Registry.sum_counter (Obs.metrics o) "net.overtakes") obs;
      } )
end

module Play_network = Play (struct
  include Network

  let create ~engine ~rng ?obs ~config () = create ~engine ~rng ?obs ~config ()
  let counters t = (sent t, delivered t, dropped t, duplicated t)
end)

module Play_reference = Play (struct
  include Network_reference

  let counters t = (t.sent, t.delivered, t.dropped, t.duplicated)
end)

let prop_matches_reference =
  QCheck.Test.make ~name:"pruned links = network that kept every link" ~count:300
    (QCheck.make ~print:print_net_case gen_net_case)
    (fun c ->
      let net, outcome = Play_network.play c in
      let _, reference = Play_reference.play c in
      outcome = reference && Network.in_flight net = 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_delivery;
          Alcotest.test_case "per-link FIFO" `Quick test_per_link_fifo;
          Alcotest.test_case "cross-link races" `Quick test_cross_link_races_happen;
          Alcotest.test_case "no handler" `Quick test_no_handler_fails;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "drop all" `Quick test_drop_all;
          Alcotest.test_case "duplicate all" `Quick test_duplicate_all;
          Alcotest.test_case "down site: counted drops" `Quick test_down_site_drops;
          Alcotest.test_case "overtaking counts every overtaken message" `Quick test_overtake_counts_all;
          q prop_fifo_always;
          q prop_matches_reference;
        ] );
    ]
