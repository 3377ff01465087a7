type policy = {
  queue_limit : int;
  tenant_limit : int;
  shed_watermark : float;
  retry_after_s : float;
  deadline_s : float option;
}

let default =
  {
    queue_limit = 256;
    tenant_limit = 64;
    shed_watermark = 1.;
    retry_after_s = 1.;
    deadline_s = None;
  }

let make ?(shed_watermark = 1.) ?(retry_after_s = 1.) ?deadline_s ~queue_limit
    ~tenant_limit () =
  if queue_limit < 1 then invalid_arg "Admission.make: queue_limit < 1";
  if tenant_limit < 1 then invalid_arg "Admission.make: tenant_limit < 1";
  if not (shed_watermark > 0. && shed_watermark <= 1.) then
    invalid_arg "Admission.make: shed_watermark not in (0,1]";
  (* Each check is written so that NaN fails it. *)
  if not (retry_after_s > 0. && retry_after_s < infinity) then
    invalid_arg "Admission.make: retry_after_s not finite and > 0";
  (match deadline_s with
  | Some d when not (d > 0.) -> invalid_arg "Admission.make: deadline_s not > 0"
  | _ -> ());
  { queue_limit; tenant_limit; shed_watermark; retry_after_s; deadline_s }

(* First queue depth that sheds. watermark = 1 makes this queue_limit, so
   the shed check can never fire before the hard queue_full check. *)
let shed_threshold policy =
  min policy.queue_limit
    (int_of_float (ceil (policy.shed_watermark *. float_of_int policy.queue_limit)))

type decision = Accept | Reject of Api.reject_reason

let decide policy ~queue_depth ~tenant_outstanding =
  if tenant_outstanding >= policy.tenant_limit then
    Reject Api.Tenant_quota
  else if queue_depth >= policy.queue_limit then Reject Api.Queue_full
  else
    let threshold = shed_threshold policy in
    if queue_depth >= threshold then
      (* Backoff hint grows linearly with the overshoot: the deeper past
         the watermark, the longer clients are told to stay away. *)
      let overshoot = queue_depth - threshold + 1 in
      Reject
        (Api.Overloaded
           { retry_after = policy.retry_after_s *. float_of_int overshoot })
    else Accept
