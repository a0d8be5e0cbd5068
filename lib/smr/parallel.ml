(* Ordered fan-out over OCaml 5 domains.

   A fresh set of domains per call (no persistent pool): experiment runs
   are orders of magnitude longer than Domain.spawn, and per-call domains
   make nesting trivial — a worker that fans out again just runs
   sequentially (guarded by Domain.is_main_domain), so the runner can
   parallelize across experiments while each experiment's own point-level
   fan-out degrades gracefully inside a worker. *)

let default_jobs () = Domain.recommended_domain_count ()

let map ~jobs f xs =
  let n = List.length xs in
  let jobs = min jobs n in
  if jobs <= 1 || not (Domain.is_main_domain ()) then List.map f xs
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    (* The lowest failing index and its exception.  Workers stop claiming
       once a failure is recorded, but a claimed index always runs, and
       indices are claimed in increasing order: every index below a
       recorded failure has run, so the lowest one is the failure
       [List.map] would raise. *)
    let failure = Atomic.make None in
    let rec record i e =
      match Atomic.get failure with
      | Some (j, _) when j < i -> ()
      | seen ->
        if not (Atomic.compare_and_set failure seen (Some (i, e))) then
          record i e
    in
    let worker () =
      let rec loop () =
        if Atomic.get failure = None then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match f input.(i) with
            | y -> out.(i) <- Some y
            | exception e -> record i e);
            loop ()
          end
        end
      in
      loop ()
    in
    let domains = List.init jobs (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    (match Atomic.get failure with Some (_, e) -> raise e | None -> ());
    Array.to_list
      (Array.map
         (function Some y -> y | None -> assert false (* failure was raised *))
         out)
  end
