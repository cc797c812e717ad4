open Netsim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pfx = Netaddr.Prefix.of_string_exn
let ip = Netaddr.Ipv4.of_string_exn

let parse_ok src =
  match Config.Parser.parse src with
  | Ok db -> db
  | Error m -> Alcotest.failf "parse failed: %s" m

(* ------------------------------------------------------------------ *)
(* Topology validation                                                *)
(* ------------------------------------------------------------------ *)

let test_topology_validation () =
  let r name ~neighbors =
    Topology.router name ~asn:1 ~router_ip:(ip "1.1.1.1") ~neighbors
  in
  (* Unidirectional session rejected. *)
  (try
     ignore
       (Topology.make
          [ r "A" ~neighbors:[ Topology.neighbor "B" ]; r "B" ~neighbors:[] ]);
     Alcotest.fail "expected Invalid_topology"
   with Topology.Invalid_topology _ -> ());
  (* Unknown neighbor rejected. *)
  (try
     ignore (Topology.make [ r "A" ~neighbors:[ Topology.neighbor "Z" ] ]);
     Alcotest.fail "expected Invalid_topology"
   with Topology.Invalid_topology _ -> ());
  (* Undefined route-map rejected. *)
  (try
     ignore
       (Topology.make
          [
            r "A" ~neighbors:[ Topology.neighbor "B" ~import:[ "NOPE" ] ];
            r "B" ~neighbors:[ Topology.neighbor "A" ];
          ]);
     Alcotest.fail "expected Invalid_topology"
   with Topology.Invalid_topology _ -> ());
  (* A peer listed twice rejected: it would make two sessions. *)
  try
    ignore
      (Topology.make
         [
           r "A" ~neighbors:[ Topology.neighbor "B"; Topology.neighbor "B" ];
           r "B" ~neighbors:[ Topology.neighbor "A" ];
         ]);
    Alcotest.fail "expected Invalid_topology"
  with Topology.Invalid_topology _ -> ()

(* ------------------------------------------------------------------ *)
(* Basic propagation                                                  *)
(* ------------------------------------------------------------------ *)

(* A -- B -- C line. *)
let line_topology () =
  Topology.make
    [
      Topology.router "A" ~asn:1 ~router_ip:(ip "1.0.0.1")
        ~originated:[ pfx "11.0.0.0/8" ]
        ~neighbors:[ Topology.neighbor "B" ];
      Topology.router "B" ~asn:2 ~router_ip:(ip "2.0.0.1")
        ~neighbors:[ Topology.neighbor "A"; Topology.neighbor "C" ];
      Topology.router "C" ~asn:3 ~router_ip:(ip "3.0.0.1")
        ~originated:[ pfx "33.0.0.0/8" ]
        ~neighbors:[ Topology.neighbor "B" ];
    ]

let test_line_propagation () =
  let state = Simulator.run (line_topology ()) in
  check "converged" true state.Simulator.converged;
  (* C hears A's prefix with path [2; 1]. *)
  (match Simulator.lookup state ~router:"C" ~prefix:(pfx "11.0.0.0/8") with
  | Some e ->
      Alcotest.(check (list int)) "as path" [ 2; 1 ] e.route.Bgp.Route.as_path;
      check "via B" true (e.learned_from = Some "B");
      check "next hop is B" true
        (Netaddr.Ipv4.equal e.route.Bgp.Route.next_hop (ip "2.0.0.1"))
  | None -> Alcotest.fail "C should reach 11.0.0.0/8");
  (* And symmetrically. *)
  check "A reaches C" true
    (Simulator.reaches state ~router:"A" ~prefix:(pfx "33.0.0.0/8"))

(* A triangle, one originator. *)
let loop_topology () =
  Topology.make
    [
      Topology.router "A" ~asn:1 ~router_ip:(ip "1.0.0.1")
        ~originated:[ pfx "11.0.0.0/8" ]
        ~neighbors:[ Topology.neighbor "B"; Topology.neighbor "C" ];
      Topology.router "B" ~asn:2 ~router_ip:(ip "2.0.0.1")
        ~neighbors:[ Topology.neighbor "A"; Topology.neighbor "C" ];
      Topology.router "C" ~asn:3 ~router_ip:(ip "3.0.0.1")
        ~neighbors:[ Topology.neighbor "A"; Topology.neighbor "B" ];
    ]

let test_loop_prevention () =
  (* No as-path loops appear on the triangle. *)
  let t = loop_topology () in
  let state = Simulator.run t in
  check "converged" true state.Simulator.converged;
  List.iter
    (fun router ->
      List.iter
        (fun (_, (e : Simulator.rib_entry)) ->
          let path = e.route.Bgp.Route.as_path in
          check "no duplicate ASNs" true
            (List.length path = List.length (List.sort_uniq Int.compare path)))
        (Simulator.rib state router))
    [ "A"; "B"; "C" ]

let test_best_path_selection () =
  (* D hears X's prefix from two paths; the longer one loses. *)
  let t =
    Topology.make
      [
        Topology.router "X" ~asn:10 ~router_ip:(ip "10.0.0.1")
          ~originated:[ pfx "99.0.0.0/8" ]
          ~neighbors:[ Topology.neighbor "S"; Topology.neighbor "L1" ];
        Topology.router "S" ~asn:20 ~router_ip:(ip "20.0.0.1")
          ~neighbors:[ Topology.neighbor "X"; Topology.neighbor "D" ];
        Topology.router "L1" ~asn:30 ~router_ip:(ip "30.0.0.1")
          ~neighbors:[ Topology.neighbor "X"; Topology.neighbor "L2" ];
        Topology.router "L2" ~asn:31 ~router_ip:(ip "31.0.0.1")
          ~neighbors:[ Topology.neighbor "L1"; Topology.neighbor "D" ];
        Topology.router "D" ~asn:40 ~router_ip:(ip "40.0.0.1")
          ~neighbors:[ Topology.neighbor "S"; Topology.neighbor "L2" ];
      ]
  in
  let state = Simulator.run t in
  match Simulator.lookup state ~router:"D" ~prefix:(pfx "99.0.0.0/8") with
  | Some e -> check "short path wins" true (e.learned_from = Some "S")
  | None -> Alcotest.fail "D should reach 99.0.0.0/8"

let test_local_pref_beats_path_length () =
  (* Import policy bumps local-pref on the longer path; it must win. *)
  let prefer =
    parse_ok
      {|
ip prefix-list ALL permit 0.0.0.0/0 le 32
route-map PREFER permit 10
 match ip address prefix-list ALL
 set local-preference 300
|}
  in
  let t =
    Topology.make
      [
        Topology.router "X" ~asn:10 ~router_ip:(ip "10.0.0.1")
          ~originated:[ pfx "99.0.0.0/8" ]
          ~neighbors:[ Topology.neighbor "S"; Topology.neighbor "L1" ];
        Topology.router "S" ~asn:20 ~router_ip:(ip "20.0.0.1")
          ~neighbors:[ Topology.neighbor "X"; Topology.neighbor "D" ];
        Topology.router "L1" ~asn:30 ~router_ip:(ip "30.0.0.1")
          ~neighbors:[ Topology.neighbor "X"; Topology.neighbor "L2" ];
        Topology.router "L2" ~asn:31 ~router_ip:(ip "31.0.0.1")
          ~neighbors:[ Topology.neighbor "L1"; Topology.neighbor "D" ];
        Topology.router "D" ~asn:40 ~router_ip:(ip "40.0.0.1") ~config:prefer
          ~neighbors:
            [
              Topology.neighbor "S";
              Topology.neighbor "L2" ~import:[ "PREFER" ];
            ];
      ]
  in
  let state = Simulator.run t in
  match Simulator.lookup state ~router:"D" ~prefix:(pfx "99.0.0.0/8") with
  | Some e ->
      check "local-pref wins" true (e.learned_from = Some "L2");
      check_int "lp 300" 300 e.route.Bgp.Route.local_pref
  | None -> Alcotest.fail "D should reach 99.0.0.0/8"

let test_export_filter () =
  let filter =
    parse_ok
      {|
ip prefix-list SECRET permit 11.0.0.0/8
route-map OUT deny 10
 match ip address prefix-list SECRET
route-map OUT permit 20
|}
  in
  let t =
    Topology.make
      [
        Topology.router "A" ~asn:1 ~router_ip:(ip "1.0.0.1") ~config:filter
          ~originated:[ pfx "11.0.0.0/8"; pfx "12.0.0.0/8" ]
          ~neighbors:[ Topology.neighbor "B" ~export:[ "OUT" ] ];
        Topology.router "B" ~asn:2 ~router_ip:(ip "2.0.0.1")
          ~neighbors:[ Topology.neighbor "A" ];
      ]
  in
  let state = Simulator.run t in
  check "filtered prefix hidden" false
    (Simulator.reaches state ~router:"B" ~prefix:(pfx "11.0.0.0/8"));
  check "other prefix visible" true
    (Simulator.reaches state ~router:"B" ~prefix:(pfx "12.0.0.0/8"))

let test_communities_propagate () =
  let tagger =
    parse_ok
      {|
ip prefix-list ALL permit 0.0.0.0/0 le 32
route-map TAG permit 10
 match ip address prefix-list ALL
 set community 65000:100 additive
|}
  in
  let t =
    Topology.make
      [
        Topology.router "A" ~asn:1 ~router_ip:(ip "1.0.0.1")
          ~originated:[ pfx "11.0.0.0/8" ]
          ~neighbors:[ Topology.neighbor "B" ];
        Topology.router "B" ~asn:2 ~router_ip:(ip "2.0.0.1") ~config:tagger
          ~neighbors:
            [
              Topology.neighbor "A" ~import:[ "TAG" ]; Topology.neighbor "C";
            ];
        Topology.router "C" ~asn:3 ~router_ip:(ip "3.0.0.1")
          ~neighbors:[ Topology.neighbor "B" ];
      ]
  in
  let state = Simulator.run t in
  match Simulator.lookup state ~router:"C" ~prefix:(pfx "11.0.0.0/8") with
  | Some e ->
      check "community survives the next hop" true
        (Bgp.Route.has_community e.route (Bgp.Community.make 65000 100))
  | None -> Alcotest.fail "C should reach 11.0.0.0/8"

(* ------------------------------------------------------------------ *)
(* Figure 3 with the reference configuration                          *)
(* ------------------------------------------------------------------ *)

let test_reference_policies () =
  let state = Simulator.run (Figure3.reference ()) in
  check "converged" true state.Simulator.converged;
  let results = Policies.check_all state in
  List.iter
    (fun (r : Policies.result) ->
      check (r.policy ^ " — " ^ r.detail) true r.holds)
    results

let test_reference_details () =
  let state = Simulator.run (Figure3.reference ()) in
  (* M reaches the service via R1 with local-pref 200. *)
  (match
     Simulator.lookup state ~router:"M" ~prefix:Figure3.service_prefix
   with
  | Some e ->
      check "via R1" true (e.learned_from = Some "R1");
      check_int "lp 200" 200 e.route.Bgp.Route.local_pref
  | None -> Alcotest.fail "M should reach the service prefix");
  (* ISPs see each other's prefixes only directly, never via us; with no
     direct ISP1-ISP2 session they see nothing of each other. *)
  check "isp1 blind to isp2" false
    (Simulator.reaches state ~router:"ISP1" ~prefix:Figure3.isp2_prefix);
  (* The datacenter still reaches ISP routes (no policy forbids it). *)
  check "dc reaches isp1 space" true
    (Simulator.reaches state ~router:"DC" ~prefix:Figure3.isp1_prefix)

let figure3_placeholders () =
  Figure3.topology
    ~r1_config:(Figure3.placeholder_maps Figure3.r1_maps)
    ~r2_config:(Figure3.placeholder_maps Figure3.r2_maps)
    ~m_config:(Figure3.placeholder_maps Figure3.m_maps)
    ~dc_config:Config.Database.empty

let test_policies_fail_without_configs () =
  (* With empty border configs (implicit-deny placeholder maps removed:
     no import/export chains at all), reused prefixes leak and bogons
     reach the ISPs: the checker must notice. *)
  let state = Simulator.run (figure3_placeholders ()) in
  let results = Policies.check_all state in
  (* Placeholder maps deny everything, so the service prefix cannot
     reach M: P2 and P3 fail. *)
  let failed = List.filter (fun (r : Policies.result) -> not r.holds) results in
  check "some policies fail" true (failed <> [])

(* ------------------------------------------------------------------ *)
(* iBGP                                                               *)
(* ------------------------------------------------------------------ *)

(* AS 200 = {B, C, E}; external feed A (AS 100) peers with B. *)
let ibgp_topology ~full_mesh =
  let lp =
    parse_ok
      {|
ip prefix-list ALL permit 0.0.0.0/0 le 32
route-map LP250 permit 10
 match ip address prefix-list ALL
 set local-preference 250
|}
  in
  Topology.make
    (List.concat
       [
         [
           Topology.router "A" ~asn:100 ~router_ip:(ip "1.0.0.1")
             ~originated:[ pfx "11.0.0.0/8" ]
             ~neighbors:[ Topology.neighbor "B" ];
           Topology.router "B" ~asn:200 ~router_ip:(ip "2.0.0.1") ~config:lp
             ~neighbors:
               (List.concat
                  [
                    [ Topology.neighbor "A" ~import:[ "LP250" ];
                      Topology.neighbor "C" ];
                    (if full_mesh then [ Topology.neighbor "E" ] else []);
                  ]);
           Topology.router "C" ~asn:200 ~router_ip:(ip "2.0.0.2")
             ~neighbors:[ Topology.neighbor "B"; Topology.neighbor "E" ];
           Topology.router "E" ~asn:200 ~router_ip:(ip "2.0.0.3")
             ~neighbors:
               (List.concat
                  [
                    [ Topology.neighbor "C" ];
                    (if full_mesh then [ Topology.neighbor "B" ] else []);
                  ]);
         ];
       ])

let test_ibgp_no_prepend_and_lp () =
  let state = Simulator.run (ibgp_topology ~full_mesh:true) in
  match Simulator.lookup state ~router:"C" ~prefix:(pfx "11.0.0.0/8") with
  | Some e ->
      (* Only the eBGP hop appears in the path; the import-time local
         preference survives the iBGP hop. *)
      Alcotest.(check (list int)) "path has only AS 100" [ 100 ]
        e.route.Bgp.Route.as_path;
      check_int "local-pref propagated" 250 e.route.Bgp.Route.local_pref
  | None -> Alcotest.fail "C should learn the external route over iBGP"

let test_ibgp_full_mesh_rule () =
  (* Without a B-E session, E must NOT learn the route: C may not
     re-advertise an iBGP-learned route to another iBGP peer. *)
  let partial = Simulator.run (ibgp_topology ~full_mesh:false) in
  check "E blind without full mesh" false
    (Simulator.reaches partial ~router:"E" ~prefix:(pfx "11.0.0.0/8"));
  let full = Simulator.run (ibgp_topology ~full_mesh:true) in
  check "E learns with full mesh" true
    (Simulator.reaches full ~router:"E" ~prefix:(pfx "11.0.0.0/8"))

(* ------------------------------------------------------------------ *)
(* Random-topology properties                                         *)
(* ------------------------------------------------------------------ *)

(* A random tree over n routers (edge i connects node i+1 to a random
   earlier node), each originating one private prefix, no policies. *)
let gen_tree =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    list_size (return (n - 1)) (int_range 0 1000) >>= fun parents ->
    let parent = Array.of_list parents in
    let neighbors = Array.make n [] in
    Array.iteri
      (fun i p ->
        let child = i + 1 and parent = p mod (i + 1) in
        neighbors.(child) <- parent :: neighbors.(child);
        neighbors.(parent) <- child :: neighbors.(parent))
      parent;
    return
      (Topology.make
         (List.init n (fun i ->
              Topology.router
                (Printf.sprintf "N%d" i)
                ~asn:(1000 + i)
                ~router_ip:(Netaddr.Ipv4.of_octets 10 0 i 1)
                ~originated:[ Netaddr.Prefix.make (Netaddr.Ipv4.of_octets 40 i 0 0) 16 ]
                ~neighbors:
                  (List.map
                     (fun j -> Topology.neighbor (Printf.sprintf "N%d" j))
                     neighbors.(i))))))

let arb_tree =
  QCheck.make ~print:(Format.asprintf "%a" Topology.pp) gen_tree

let prop_tree_full_reachability =
  QCheck.Test.make ~name:"policy-free trees: everyone reaches everything"
    ~count:100 arb_tree
    (fun t ->
      let state = Simulator.run t in
      state.Simulator.converged
      && List.for_all
           (fun (r : Topology.router) ->
             List.for_all
               (fun (o : Topology.router) ->
                 List.for_all
                   (fun p -> Simulator.reaches state ~router:r.name ~prefix:p)
                   o.Topology.originated)
               t.Topology.routers)
           t.Topology.routers)

let prop_tree_paths_loop_free =
  QCheck.Test.make ~name:"tree RIB paths never repeat an ASN" ~count:100
    arb_tree
    (fun t ->
      let state = Simulator.run t in
      List.for_all
        (fun (r : Topology.router) ->
          List.for_all
            (fun (_, (e : Simulator.rib_entry)) ->
              let path = e.route.Bgp.Route.as_path in
              List.length path = List.length (List.sort_uniq Int.compare path))
            (Simulator.rib state r.name))
        t.Topology.routers)

let prop_simulation_deterministic =
  QCheck.Test.make ~name:"simulation is deterministic" ~count:50 arb_tree
    (fun t ->
      let a = Simulator.run t and b = Simulator.run t in
      List.for_all
        (fun (r : Topology.router) ->
          Simulator.rib a r.name = Simulator.rib b r.name)
        t.Topology.routers)

(* ------------------------------------------------------------------ *)
(* Equivalence with the re-offer-everything oracle                    *)
(* ------------------------------------------------------------------ *)

(* [None] is the default bound; 1-3 stop early, so the delta rounds
   must match the oracle's round for round. *)
let round_bounds = [ None; Some 1; Some 2; Some 3 ]

let same_state (a : Simulator.state) (b : Simulator.state) =
  Simulator.Smap.equal (Simulator.Pmap.equal ( = )) a.ribs b.ribs
  && a.rounds = b.rounds && a.converged = b.converged

let check_same_as_oracle ?max_rounds name t =
  check
    (match max_rounds with
    | None -> name
    | Some k -> Printf.sprintf "%s, max_rounds %d" name k)
    true
    (same_state
       (Simulator.run ?max_rounds t)
       (Netsim_oracle.run ?max_rounds t))

let test_oracle_fixed () =
  List.iter
    (fun (name, t) ->
      List.iter
        (fun max_rounds -> check_same_as_oracle ?max_rounds name (t ()))
        round_bounds)
    [
      ("figure 3, reference configs", Figure3.reference);
      ("figure 3, placeholder configs", figure3_placeholders);
      ("line", line_topology);
      ("loop", loop_topology);
      ("ibgp full mesh", fun () -> ibgp_topology ~full_mesh:true);
      ("ibgp partial mesh", fun () -> ibgp_topology ~full_mesh:false);
    ]

(* A generated fleet with E5-synthesized configs: profile, internal
   routers, and an optional (heavy, factor) skew of the plans. *)
let gen_fleet =
  QCheck.Gen.(
    triple
      (oneofl [ Netgen.Fat_tree; Netgen.Wan ])
      (int_range 8 96)
      (opt (pair (int_range 1 4) (int_range 2 3))))

let print_fleet (profile, routers, skew) =
  Printf.sprintf "%s, %d routers%s"
    (Netgen.profile_to_string profile)
    routers
    (match skew with
    | None -> ""
    | Some (heavy, factor) -> Printf.sprintf ", skew %d x%d" heavy factor)

let synthesized_fleet (profile, routers, skew) =
  let net = Netgen.generate ~profile ~routers in
  let plans = Netgen.Policy.compile net in
  let plans =
    match skew with
    | None -> plans
    | Some (heavy, factor) -> Netgen.Policy.skew ~heavy ~factor plans
  in
  Evaluation.E5_fleet.reset_fleet ~routers:(List.length plans);
  Netgen.install net
    (List.map
       (fun plan ->
         let r = Evaluation.E5_fleet.build_router plan in
         (r.Evaluation.E5_fleet.router, r.Evaluation.E5_fleet.config))
       plans)

let prop_fleets_match_oracle =
  QCheck.Test.make ~name:"synthesized fleets: delta simulator = oracle"
    ~count:10
    (QCheck.make ~print:print_fleet gen_fleet)
    (fun fleet ->
      let t = synthesized_fleet fleet in
      List.for_all
        (fun max_rounds ->
          same_state
            (Simulator.run ?max_rounds t)
            (Netsim_oracle.run ?max_rounds t))
        round_bounds)

(* ------------------------------------------------------------------ *)
(* Non-convergence                                                    *)
(* ------------------------------------------------------------------ *)

(* BAD GADGET (Griffin, Shepherd and Wilfong): three ASes around an
   origin, each preferring the two-hop path through its clockwise
   neighbor over its direct path and accepting nothing longer. In
   synchronous rounds all three switch to the neighbor's path at once,
   each then loses the path it switched to, and all three fall back:
   the RIBs oscillate forever. A tail A - D - E, where D accepts only
   A's direct path, turns the oscillation into withdrawals: D and then
   E lose the prefix every other round. *)
let bad_gadget () =
  let ring = [| "A"; "B"; "C" |] and asns = [| 1; 2; 3 |] in
  let origin_asn = 100 in
  let node i =
    let next = (i + 1) mod 3 and prev = (i + 2) mod 3 in
    let config =
      parse_ok
        (Printf.sprintf
           {|
ip as-path access-list VIA_NEXT permit ^%d_%d$
route-map FROM_NEXT permit 10
 match as-path VIA_NEXT
 set local-preference 200
route-map FROM_PREV deny 10
|}
           asns.(next) origin_asn)
    in
    Topology.router ring.(i) ~asn:asns.(i)
      ~router_ip:(Netaddr.Ipv4.of_octets 10 0 0 (i + 1))
      ~config
      ~neighbors:
        ([
           Topology.neighbor "O";
           Topology.neighbor ring.(next) ~import:[ "FROM_NEXT" ];
           Topology.neighbor ring.(prev) ~import:[ "FROM_PREV" ];
         ]
        @ if i = 0 then [ Topology.neighbor "D" ] else [])
  in
  let direct_only =
    parse_ok
      {|
ip as-path access-list DIRECT permit ^1_100$
route-map FROM_A permit 10
 match as-path DIRECT
|}
  in
  Topology.make
    ((Topology.router "O" ~asn:origin_asn ~router_ip:(ip "10.0.0.100")
        ~originated:[ pfx "99.0.0.0/8" ]
        ~neighbors:(List.map Topology.neighbor [ "A"; "B"; "C" ])
     :: List.init 3 node)
    @ [
        Topology.router "D" ~asn:4 ~router_ip:(ip "10.0.0.4")
          ~config:direct_only
          ~neighbors:
            [
              Topology.neighbor "A" ~import:[ "FROM_A" ];
              Topology.neighbor "E";
            ];
        Topology.router "E" ~asn:5 ~router_ip:(ip "10.0.0.5")
          ~neighbors:[ Topology.neighbor "D" ];
      ])

let test_bad_gadget_diverges () =
  let t = bad_gadget () in
  List.iter
    (fun max_rounds ->
      let s = Simulator.run ~max_rounds t in
      check "not converged" false s.Simulator.converged;
      check_int "stopped at max_rounds" max_rounds s.Simulator.rounds;
      check_same_as_oracle ~max_rounds "bad gadget" t)
    [ 1; 2; 3; 10; Simulator.default_max_rounds ];
  (* Even rounds hold the two-hop paths, odd rounds the direct ones. *)
  let via k =
    let s = Simulator.run ~max_rounds:k t in
    Option.map
      (fun (e : Simulator.rib_entry) -> e.learned_from)
      (Simulator.lookup s ~router:"A" ~prefix:(pfx "99.0.0.0/8"))
  in
  check "direct after 1 round" true (via 1 = Some (Some "O"));
  check "via B after 2 rounds" true (via 2 = Some (Some "B"));
  check "direct after 3 rounds" true (via 3 = Some (Some "O"));
  (* The withdrawals reach the end of the tail. *)
  let e_reaches k =
    Simulator.reaches
      (Simulator.run ~max_rounds:k t)
      ~router:"E" ~prefix:(pfx "99.0.0.0/8")
  in
  check "E reaches after 3 rounds" true (e_reaches 3);
  check "E withdrawn after 4 rounds" false (e_reaches 4);
  check "E reaches after 5 rounds" true (e_reaches 5)

let () =
  Alcotest.run "netsim"
    [
      ( "topology",
        [ Alcotest.test_case "validation" `Quick test_topology_validation ] );
      ( "simulator",
        [
          Alcotest.test_case "line propagation" `Quick test_line_propagation;
          Alcotest.test_case "loop prevention" `Quick test_loop_prevention;
          Alcotest.test_case "shortest path wins" `Quick test_best_path_selection;
          Alcotest.test_case "local-pref beats length" `Quick
            test_local_pref_beats_path_length;
          Alcotest.test_case "export filter" `Quick test_export_filter;
          Alcotest.test_case "communities propagate" `Quick
            test_communities_propagate;
        ] );
      ( "ibgp",
        [
          Alcotest.test_case "no prepend, lp propagates" `Quick
            test_ibgp_no_prepend_and_lp;
          Alcotest.test_case "full-mesh rule" `Quick test_ibgp_full_mesh_rule;
        ] );
      ( "random-topologies",
        [
          QCheck_alcotest.to_alcotest prop_tree_full_reachability;
          QCheck_alcotest.to_alcotest prop_tree_paths_loop_free;
          QCheck_alcotest.to_alcotest prop_simulation_deterministic;
        ] );
      ( "figure3",
        [
          Alcotest.test_case "five policies hold" `Quick test_reference_policies;
          Alcotest.test_case "details" `Quick test_reference_details;
          Alcotest.test_case "unconfigured network fails" `Quick
            test_policies_fail_without_configs;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fixed topologies" `Quick test_oracle_fixed;
          QCheck_alcotest.to_alcotest prop_fleets_match_oracle;
          Alcotest.test_case "bad gadget diverges" `Quick
            test_bad_gadget_diverges;
        ] );
    ]
