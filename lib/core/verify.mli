(** Safety verification entry points (Lemmas 1 and 2, assume-guarantee).

    Given a perception network, a trained characterizer at cut layer [l],
    and a risk condition [psi], decide whether some cut-layer activation
    inside the region [S] can simultaneously satisfy the characterizer
    (phi holds) and drive the output into [psi]. *)

type bounds_spec =
  | Static_bounds of Dpv_absint.Propagate.domain * Dpv_absint.Box_domain.t
      (** Sound [S] from abstract interpretation of the prefix over the
          given *input image* box (Lemma 2).  Unconditional. *)
  | Data_box of Dpv_tensor.Vec.t array
      (** [S~] = min/max box over visited feature vectors
          (assume-guarantee; requires runtime monitoring). *)
  | Data_octagon of Dpv_tensor.Vec.t array
      (** [S~] = octagon-template outer polyhedron over visited feature
          vectors (assume-guarantee, tighter than the box). *)
  | Feature_box of Dpv_absint.Box_domain.t
      (** Explicit box over cut-layer values (Lemma 1 with caller-chosen
          bounds).  Treated as unconditional. *)

type verdict =
  | Safe of { conditional : bool }
      (** No violating activation exists in [S].  [conditional] marks
          assume-guarantee proofs that need a runtime monitor. *)
  | Unsafe of {
      features : Dpv_tensor.Vec.t;  (** violating cut-layer activation *)
      output : Dpv_tensor.Vec.t;    (** suffix output at that activation *)
      logit : float;                (** characterizer logit there *)
    }
  | Unknown of string

type result = {
  verdict : verdict;
  milp_stats : Dpv_linprog.Milp.stats;
  encoding : string;   (** human-readable size of the MILP *)
  num_binaries : int;
  wall_time_s : float;
}

val default_milp_options : Dpv_linprog.Milp.options
(** {!Dpv_linprog.Milp.default_options} with [find_first = true] — the
    natural solver mode for a feasibility query. *)

val deadline_reason : string
(** The [Unknown] reason reported when the wall-clock deadline expired
    (["deadline exceeded"]).  It is a scheduling artifact, not a fact
    about the query, which is why {!Retry} keys its deadline-retry rung
    on exactly this string. *)

val resolve_bounds :
  perception:Dpv_nn.Network.t ->
  cut:int ->
  bounds_spec ->
  Dpv_absint.Box_domain.t * Dpv_monitor.Polyhedron.halfspace list
(** Resolve a bounds specification into the concrete feature box plus
    any octagon faces over the feature variables.  This is the
    per-region fitting work ({!Data_box}/{!Data_octagon} hulls, static
    propagation) that {!Campaign} caches per [(cut, bounds)] key. *)

val run_query :
  ?milp_options:Dpv_linprog.Milp.options ->
  ?absint:bool ->
  ?absint_seed:Absguide.seed ->
  characterizer_margin:float ->
  shared:Encode.shared ->
  head:Dpv_nn.Network.t ->
  psi:Dpv_spec.Risk.t ->
  conditional:bool ->
  unit ->
  result
(** Run one MILP query on a pre-built {!Encode.shared} prefix: complete
    the encoding with [head]/[psi]/[characterizer_margin], solve, and
    map the solver result to a verdict (re-validating any witness by
    concrete execution).  [absint] (default false) arms the
    branch-and-bound search with the {!Absguide} DeepPoly guide built
    from this encoding (phase fixing, node pruning, and — together with
    [milp_options.branch_rule = Bound_width] — bound-width branching).
    [absint_seed] hands the guide an already propagated root state over
    this query's feature box ({!Absguide.root_propagation}), so the
    first consult re-propagates nothing — the bisection front end uses
    it to avoid propagating every surviving leaf twice.
    Callers that answer many queries over the same [(cut, bounds)]
    region build the prefix once — see {!Campaign}. *)

type bisect_options = {
  max_depth : int;
      (** bisection tree depth: up to [2^max_depth] sub-boxes *)
  subbox_time_limit_s : float option;
      (** optional per-sub-box wall-clock budget, met with the query's
          own remaining deadline by taking the minimum *)
}

val default_bisect_options : bisect_options
(** [{ max_depth = 2; subbox_time_limit_s = None }] *)

type bisect_plan = {
  survivors : (Dpv_absint.Box_domain.t * Absguide.seed) list;
      (** sub-boxes that still need a complete MILP query, each paired
          with the root propagation that failed to discharge it — handed
          to {!run_query} as [absint_seed] so the work is not redone *)
  discharged : int;
      (** sub-boxes proven safe by DeepPoly propagation alone *)
}

val plan_total : bisect_plan -> int
(** Total leaves of the plan: [discharged + length survivors]. *)

val bisect_plan :
  max_depth:int ->
  suffix:Dpv_nn.Network.t ->
  head:Dpv_nn.Network.t ->
  psi:Dpv_spec.Risk.t ->
  characterizer_margin:float ->
  Dpv_absint.Box_domain.t ->
  bisect_plan
(** Recursively split the feature box at the midpoint of its widest
    dimension, discharging any sub-box that DeepPoly alone proves safe
    (the {!verify_incomplete} conditions); survivors are the leaves at
    [max_depth] (or unsplittable degenerate boxes).  The plan's leaves
    cover the input box exactly.  Increments the [bisect.subboxes] and
    [bisect.discharged] metrics counters. *)

val merge_bisected :
  conditional:bool ->
  discharged:int ->
  total_subboxes:int ->
  wall_time_s:float ->
  unsolved:int ->
  result list ->
  result
(** Sound verdict merge over a plan's solved survivors: any UNSAFE
    result (its witness was already re-validated concretely by
    {!run_query}) decides the query; [Safe] requires [unsolved = 0] and
    every survivor Safe; otherwise Unknown.  MILP stats are summed
    ({!Dpv_linprog.Milp.add_stats}); a sub-box deadline expiry keeps
    the exact {!deadline_reason} so the retry ladder still keys on
    it. *)

val verify :
  ?milp_options:Dpv_linprog.Milp.options ->
  ?characterizer_margin:float ->
  ?tighten:bool ->
  ?absint:bool ->
  ?bisect:bisect_options ->
  perception:Dpv_nn.Network.t ->
  characterizer:Characterizer.t ->
  psi:Dpv_spec.Risk.t ->
  bounds:bounds_spec ->
  unit ->
  result
(** [tighten] (default false) runs {!Tighten.feature_box} over the
    resolved region before encoding, trading a few LPs for fewer
    branch-and-bound binaries.

    [absint] (default false) arms the DeepPoly branch-and-bound guide —
    see {!run_query}.  [bisect] (default off) runs the input-bisection
    front end instead of one monolithic MILP: the resolved (and
    possibly tightened) feature box is split per {!bisect_plan}, cheap
    sub-boxes are discharged by propagation, survivors are solved as
    independent MILP queries (stopping early once a validated UNSAFE
    witness is found), and the verdicts are combined with
    {!merge_bisected}.

    [milp_options] controls the solver: [workers > 1] searches the
    branch-and-bound tree across that many domains
    ({!Dpv_linprog.Milp.solve}), and [time_limit_s] imposes a wall-clock
    deadline — an expired query returns [Unknown "deadline exceeded"]
    (the paper's UNKNOWN verdict) instead of spinning to the node cap.
    [time_limit_s] is a budget for the {e whole} call: one deadline is
    started up front and shared by the optional tightening pass, every
    bisection sub-box, and the MILP search, so neither [tighten:true]
    nor [bisect] can grow the wall clock past the budget. *)

val verify_incomplete :
  ?domain:Dpv_absint.Propagate.domain ->
  ?characterizer_margin:float ->
  perception:Dpv_nn.Network.t ->
  characterizer:Characterizer.t ->
  psi:Dpv_spec.Risk.t ->
  bounds:bounds_spec ->
  unit ->
  result
(** The incomplete baseline in the style of the paper's references
    [6]/[20]: pure bound propagation, no MILP.  The region [S] is pushed
    through the suffix and the characterizer head with the given abstract
    [domain] (default [Deeppoly]); the verdict is [Safe] when either the
    characterizer's logit upper bound stays below the margin (phi can
    never fire in S) or some inequality of [psi] is unsatisfiable within
    the propagated output bounds.  Otherwise [Unknown] — bound
    propagation alone cannot exploit the conjunction of "phi fires" with
    [psi], which is exactly why the paper reaches for MILP.  Orders of
    magnitude faster than the complete query. *)

val verify_without_characterizer :
  ?milp_options:Dpv_linprog.Milp.options ->
  perception:Dpv_nn.Network.t ->
  cut:int ->
  psi:Dpv_spec.Risk.t ->
  bounds:bounds_spec ->
  unit ->
  result
(** Plain output-range safety over [S] with no input condition — the
    baseline that shows why characterizers matter: without [phi] the
    query usually finds spurious violations. *)

type optimum = {
  value : float;            (** optimal objective value *)
  opt_features : Dpv_tensor.Vec.t;
  opt_output : Dpv_tensor.Vec.t;
  opt_logit : float;
}

val optimize_output :
  ?milp_options:Dpv_linprog.Milp.options ->
  ?characterizer_margin:float ->
  perception:Dpv_nn.Network.t ->
  characterizer:Characterizer.t ->
  objective:Dpv_spec.Linexpr.t ->
  sense:[ `Maximize | `Minimize ] ->
  bounds:bounds_spec ->
  unit ->
  (optimum, string) Stdlib.result
(** Extremize a linear output expression over the region where the
    characterizer fires and the activation lies in [S] — e.g. "what is
    the largest waypoint the network can suggest while the characterizer
    reports a right bend?".  Locates the provable frontier of psi
    thresholds: any threshold beyond the optimum is (conditionally)
    safe. *)

val is_conditional : bounds_spec -> bool
val pp_verdict : Format.formatter -> verdict -> unit
