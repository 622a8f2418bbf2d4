(* Registry dispatch for the SEC checker; see cells.mli. *)

module Registry = Crdt_engine.Registry

type tier_cfg = {
  checker : Checker.config;
  rounds : int;
  max_faults : int;
  seed : int;
  walks : int;
  walk_len : int;
}

let default_cfg =
  {
    checker = Checker.default_config;
    rounds = 3;
    max_faults = 2;
    seed = 42;
    walks = 64;
    walk_len = 80;
  }

type failure = {
  invariant : string;
  detail : string;
  schedule : string;
  shrunk : string;
}

type report = {
  proto : string;
  crdt : string;
  exhaustive : int;
  walks : int;
  failure : failure option;
}

let cells () =
  List.concat_map
    (fun pname -> List.map (fun cname -> (pname, cname)) Registry.crdt_names)
    Registry.protocol_names

let check_cell cfg ~proto ~crdt =
  let maker = Registry.find_protocol proto in
  let module S = (val Registry.find_crdt crdt) in
  let module Protocols = Registry.For (S.C) in
  let module P = (val Protocols.make maker) in
  let module K = Checker.Make (S.C) (P) in
  let ops ~node ~index state = S.serve_ops ~id:node ~tick:index state in
  let mk_failure checker_cfg (sched, (v : Checker.violation)) =
    let shrunk = K.shrink checker_cfg ~ops sched v in
    {
      invariant = v.invariant;
      detail = v.detail;
      schedule = Schedule.to_string sched;
      shrunk = Schedule.to_string shrunk;
    }
  in
  let ex =
    K.exhaustive cfg.checker ~ops ~rounds:cfg.rounds ~max_faults:cfg.max_faults
  in
  match ex.failure with
  | Some f ->
      {
        proto;
        crdt;
        exhaustive = ex.explored;
        walks = 0;
        failure = Some (mk_failure cfg.checker f);
      }
  | None ->
      (* the random tier widens the group to 3 replicas for cross-talk
         the 2-replica exhaustive scope cannot produce *)
      let rcfg =
        { cfg.checker with replicas = max 3 cfg.checker.replicas }
      in
      let rnd =
        if cfg.walks = 0 then ({ explored = 0; failure = None } : Checker.outcome)
        else
          K.random rcfg ~ops ~seed:cfg.seed ~walks:cfg.walks
            ~walk_len:cfg.walk_len
      in
      {
        proto;
        crdt;
        exhaustive = ex.explored;
        walks = rnd.explored;
        failure = Option.map (mk_failure rcfg) rnd.failure;
      }

let replay checker_cfg ~proto ~crdt ~schedule =
  let maker = Registry.find_protocol proto in
  let module S = (val Registry.find_crdt crdt) in
  let module Protocols = Registry.For (S.C) in
  let module P = (val Protocols.make maker) in
  let module K = Checker.Make (S.C) (P) in
  let ops ~node ~index state = S.serve_ops ~id:node ~tick:index state in
  K.run checker_cfg ~ops (Schedule.of_string schedule)
