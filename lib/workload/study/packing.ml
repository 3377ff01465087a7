module Api = Rats_server.Api
module Problem = Rats_core.Problem
module Rats = Rats_core.Rats

let plan ~cluster (r : Api.request) =
  let problem = Problem.make ~dag:(Api.dag_of_spec r.Api.job) ~cluster in
  let n = Problem.n_procs problem in
  let demand = max 1 (n / 4) in
  let alloc =
    Array.init (Problem.n_tasks problem) (fun i ->
        if Problem.is_virtual problem i then 1 else demand)
  in
  Rats.schedule ~alloc problem Rats.Baseline
