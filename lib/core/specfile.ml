module Oracle = Dpv_scenario.Oracle
module Generator = Dpv_scenario.Generator
module Camera = Dpv_scenario.Camera
module Propagate = Dpv_absint.Propagate
module Milp = Dpv_linprog.Milp

(* Internal control flow only; both entry points catch it and return
   [Error].  Callers never see the exception. *)
exception Spec_error of string

let spec_error fmt = Printf.ksprintf (fun m -> raise (Spec_error m)) fmt

(* Typed field accessors over the hand-rolled JSON reader; every
   mistype names the offending key. *)
let j_int v key =
  match Json.to_int v with
  | Some i -> i
  | None -> spec_error "%S must be an integer" key

let j_float v key =
  match Json.to_float v with
  | Some f -> f
  | None -> spec_error "%S must be a number" key

let j_string v key =
  match Json.to_string v with
  | Some s -> s
  | None -> spec_error "%S must be a string" key

let field obj key = Json.member key obj

let int_field obj key ~default =
  match field obj key with None -> default | Some v -> j_int v key

let float_opt_field obj key =
  Option.map (fun v -> j_float v key) (field obj key)

let parse_psi s =
  match String.split_on_char ':' s with
  | [ "far-left" ] -> Ok (Workflow.psi_steer_far_left ())
  | [ "far-left"; t ] ->
      Ok (Workflow.psi_steer_far_left ~threshold:(float_of_string t) ())
  | [ "far-right" ] -> Ok (Workflow.psi_steer_far_right ())
  | [ "far-right"; t ] ->
      Ok (Workflow.psi_steer_far_right ~threshold:(float_of_string t) ())
  | [ "straight" ] -> Ok (Workflow.psi_steer_straight ())
  | [ "straight"; h ] ->
      Ok (Workflow.psi_steer_straight ~halfwidth:(float_of_string h) ())
  | _ -> (
      (* Fall back to the raw inequality language, e.g.
         "y0 >= 2.5 && y1 <= 0.3". *)
      match Dpv_spec.Risk.of_string s with
      | Ok psi -> Ok psi
      | Error e ->
          Error
            (Printf.sprintf
               "not a named condition (far-left[:T], far-right[:T], \
                straight[:H]) and not a valid inequality (%s)"
               e))

let parse_strategy = function
  | "static-box" -> Ok (Workflow.Static Propagate.Box)
  | "static-zonotope" -> Ok (Workflow.Static Propagate.Zonotope)
  | "static-deeppoly" -> Ok (Workflow.Static Propagate.Deeppoly)
  | "data-box" -> Ok Workflow.Data_box
  | "data-octagon" -> Ok Workflow.Data_octagon
  | s ->
      Error
        (Printf.sprintf
           "unknown strategy %S (static-box, static-zonotope, \
            static-deeppoly, data-box, data-octagon)"
           s)

(* The optional "setup" object shrinks the trained pipeline — CI smoke
   campaigns train a tiny network in seconds instead of the full
   default. *)
let setup_of_spec spec ~seed =
  let base = { Workflow.default_setup with Workflow.seed } in
  match field spec "setup" with
  | None -> base
  | Some s ->
      let geti key default = int_field s key ~default in
      let hidden =
        match field s "hidden" with
        | None -> base.Workflow.hidden
        | Some v -> (
            match Json.to_list v with
            | Some l -> List.map (fun x -> j_int x "hidden") l
            | None -> spec_error "\"hidden\" must be an array of integers")
      in
      let camera = base.Workflow.scenario.Generator.camera in
      let camera =
        {
          camera with
          Camera.width = geti "camera_width" camera.Camera.width;
          height = geti "camera_height" camera.Camera.height;
        }
      in
      {
        base with
        Workflow.hidden;
        cut = geti "cut" base.Workflow.cut;
        train_size = geti "train_size" base.Workflow.train_size;
        val_size = geti "val_size" base.Workflow.val_size;
        perception_epochs = geti "perception_epochs" base.Workflow.perception_epochs;
        characterizer_samples =
          geti "characterizer_samples" base.Workflow.characterizer_samples;
        bounds_samples = geti "bounds_samples" base.Workflow.bounds_samples;
        scenario = { base.Workflow.scenario with Generator.camera };
      }

type parsed = {
  seed : int;
  runners : int;
  workers : int;
  budget_s : float option;
  timeout_s : float option;
  max_nodes : int;
  setup : Workflow.setup;
  query_specs : Json.t list;
}

let parse spec =
  try
    let seed = int_field spec "seed" ~default:Workflow.default_setup.Workflow.seed in
    (* An empty array is legal: a shard of a small spec can be empty
       too, and both must produce a valid (empty) report, not an
       error. *)
    let query_specs =
      match Option.bind (field spec "queries") Json.to_list with
      | Some l -> l
      | None -> spec_error "\"queries\" must be an array"
    in
    Ok
      {
        seed;
        runners = int_field spec "runners" ~default:1;
        workers = int_field spec "workers" ~default:1;
        budget_s = float_opt_field spec "budget_s";
        timeout_s = float_opt_field spec "timeout_s";
        max_nodes =
          int_field spec "max_nodes"
            ~default:Milp.default_options.Milp.max_nodes;
        setup = setup_of_spec spec ~seed;
        query_specs;
      }
  with Spec_error msg -> Error msg

let milp_options ?(branch_rule = Milp.default_options.Milp.branch_rule) p =
  let workers =
    if p.workers <= 0 then Milp.default_workers () else p.workers
  in
  {
    Milp.default_options with
    find_first = true;
    workers;
    time_limit_s = p.timeout_s;
    max_nodes = p.max_nodes;
    branch_rule;
  }

(* Characterizer training and bounds fitting are memoized across specs;
   both are deterministic in (setup.seed, property, cut), so verdicts
   match individual `dpv verify` runs — and a resident server amortizes
   one submission's training for every later one. *)
type builder = {
  prepared : Workflow.prepared;
  characterizers : (string * int, Characterizer.t) Hashtbl.t;
  bounds_cache : (string * int, Verify.bounds_spec) Hashtbl.t;
  b_lock : Mutex.t;
}

let builder prepared =
  {
    prepared;
    characterizers = Hashtbl.create 8;
    bounds_cache = Hashtbl.create 8;
    b_lock = Mutex.create ();
  }

let characterizer_for b ~property ~cut =
  let key = (property.Dpv_spec.Property.name, cut) in
  Mutex.protect b.b_lock (fun () ->
      match Hashtbl.find_opt b.characterizers key with
      | Some c -> c
      | None ->
          let c, _, _ =
            Workflow.train_characterizer ~cut b.prepared ~property
          in
          Hashtbl.add b.characterizers key c;
          c)

let bounds_for b ~strategy ~cut =
  let key = (Workflow.strategy_name strategy, cut) in
  Mutex.protect b.b_lock (fun () ->
      match Hashtbl.find_opt b.bounds_cache key with
      | Some bs -> bs
      | None ->
          let bs = Workflow.bounds_spec_of b.prepared ~cut strategy in
          Hashtbl.add b.bounds_cache key bs;
          bs)

let queries b ~default_cut query_specs =
  try
    Ok
      (List.map
         (fun q ->
           let str key =
             match field q key with
             | Some v -> Some (j_string v key)
             | None -> None
           in
           let property =
             let name =
               match str "property" with
               | Some n -> n
               | None -> spec_error "query is missing \"property\""
             in
             match Oracle.find name with
             | Some p -> p
             | None -> spec_error "unknown property %S" name
           in
           let psi =
             match str "psi" with
             | None -> spec_error "query is missing \"psi\""
             | Some s -> (
                 match parse_psi s with
                 | Ok psi -> psi
                 | Error e -> spec_error "bad psi %S: %s" s e)
           in
           let strategy =
             match str "strategy" with
             | None -> spec_error "query is missing \"strategy\""
             | Some s -> (
                 match parse_strategy s with
                 | Ok st -> st
                 | Error e -> spec_error "%s" e)
           in
           let cut = int_field q "cut" ~default:default_cut in
           let characterizer_margin =
             Option.value (float_opt_field q "margin") ~default:0.0
           in
           let label =
             match str "name" with
             | Some n -> n
             | None ->
                 Printf.sprintf "%s|%s|%s" property.Dpv_spec.Property.name
                   psi.Dpv_spec.Risk.name
                   (Workflow.strategy_name strategy)
           in
           Campaign.query ~characterizer_margin ~label
             ~characterizer:(characterizer_for b ~property ~cut)
             ~psi
             ~bounds:(bounds_for b ~strategy ~cut)
             ())
         query_specs)
  with Spec_error msg -> Error msg
