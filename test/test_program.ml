(* Tests for the free-monad program DSL. *)

open Smr
open Program.Syntax
open Test_util

(* A toy responder: reads return the address, everything else responds 1. *)
let respond = function
  | Op.Read a | Op.Ll a -> a
  | Op.Write _ -> 0
  | _ -> 1

let var_at ctx a =
  (* Allocate until the variable lands at a chosen small address. *)
  let rec go () =
    let v = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
    if Var.addr v >= a then v else go ()
  in
  go ()

let test_return_has_no_steps () =
  let invs, v = interpret ~respond (Program.return 42) in
  check_int "no invocations" 0 (List.length invs);
  check_int "value" 42 v

let test_bind_sequences () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let prog =
    let* () = Program.write x 5 in
    let* v = Program.read x in
    Program.return (v + 1)
  in
  let invs, v = interpret ~respond prog in
  check_int "two invocations" 2 (List.length invs);
  (* respond gives Read its address back *)
  check_int "result uses read response" (Var.addr x + 1) v

let test_map () =
  let prog = Program.map (fun v -> v * 2) (Program.step (Op.Read 3)) in
  let _, v = interpret ~respond prog in
  check_int "map transforms" 6 v

let test_for_ () =
  let prog = Program.for_ 1 4 (fun i -> Program.map ignore (Program.step (Op.Read i))) in
  let invs, () = interpret ~respond prog in
  check_int "four iterations" 4 (List.length invs);
  check_true "in order"
    (List.map Op.addr_of invs = [ 1; 2; 3; 4 ])

let test_for_empty () =
  let invs, () =
    interpret ~respond (Program.for_ 3 2 (fun _ -> Program.return ()))
  in
  check_int "empty range runs nothing" 0 (List.length invs)

let test_seq () =
  let mk a = Program.map ignore (Program.step (Op.Read a)) in
  let invs, () = interpret ~respond (Program.seq [ mk 1; mk 2; mk 3 ]) in
  check_true "sequence order" (List.map Op.addr_of invs = [ 1; 2; 3 ])

let test_when_ () =
  let body = Program.map ignore (Program.step (Op.Read 0)) in
  let invs_t, () = interpret ~respond (Program.when_ true body) in
  let invs_f, () = interpret ~respond (Program.when_ false body) in
  check_int "when true runs" 1 (List.length invs_t);
  check_int "when false skips" 0 (List.length invs_f)

let test_repeat_until () =
  (* Stop after the third iteration: responses are scripted. *)
  let counter = ref 0 in
  let respond _ =
    incr counter;
    if !counter >= 3 then 1 else 0
  in
  let body = Program.map (fun v -> v = 1) (Program.step (Op.Read 0)) in
  let invs, () = interpret ~respond (Program.repeat_until body) in
  check_int "three iterations" 3 (List.length invs)

let test_await () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let counter = ref 0 in
  let respond _ =
    incr counter;
    !counter
  in
  let invs, () = interpret ~respond (Program.await x (fun v -> v >= 5)) in
  check_int "spins until predicate" 5 (List.length invs)

let test_typed_ops_round_trip () =
  let ctx = Var.Ctx.create () in
  let b = Var.Ctx.bool ctx ~name:"b" ~home:Var.Shared false in
  let w = Var.Ctx.pid_opt ctx ~name:"w" ~home:Var.Shared None in
  (* bool decode *)
  let _, v = interpret ~respond:(fun _ -> 1) (Program.read b) in
  check_true "bool decode true" v;
  let _, v = interpret ~respond:(fun _ -> 0) (Program.read b) in
  check_false "bool decode false" v;
  (* pid_opt decode *)
  let _, v = interpret ~respond:(fun _ -> -1) (Program.read w) in
  check_true "pid None" (v = None);
  let _, v = interpret ~respond:(fun _ -> 3) (Program.read w) in
  check_true "pid Some" (v = Some 3);
  (* writes encode *)
  let invs, () = interpret ~respond (Program.write w (Some 5)) in
  check_true "pid encode" (invs = [ Op.Write (Var.addr w, 5) ]);
  let invs, () = interpret ~respond (Program.write w None) in
  check_true "NIL encode" (invs = [ Op.Write (Var.addr w, -1) ])

let test_cas_bool_result () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let _, ok =
    interpret ~respond:(fun _ -> 1) (Program.cas x ~expected:0 ~update:1)
  in
  check_true "cas success decodes true" ok;
  let _, ok =
    interpret ~respond:(fun _ -> 0) (Program.cas x ~expected:0 ~update:1)
  in
  check_false "cas failure decodes false" ok

let test_length_exn () =
  let prog = Program.for_ 1 10 (fun i -> Program.map ignore (Program.step (Op.Read i))) in
  check_int "length" 10 (Program.length_exn ~respond prog);
  let spin = Program.await (var_at (Var.Ctx.create ()) 0) (fun v -> v > 0) in
  Alcotest.check_raises "unbounded program exhausts fuel"
    (Invalid_argument "Program.length_exn: out of fuel")
    (fun () -> ignore (Program.length_exn ~fuel:100 ~respond:(fun _ -> 0) spin))

let test_next_invocation () =
  check_true "return has none" (Program.next_invocation (Program.return 1) = None);
  check_true "step exposes op"
    (Program.next_invocation (Program.step (Op.Read 5)) = Some (Op.Read 5))

let prop_bind_assoc =
  (* (m >>= f) >>= g behaves as m >>= (fun x -> f x >>= g) under any
     responder: same invocation trace and result. *)
  qcheck "bind is associative (observably)"
    QCheck.(small_list (int_bound 7))
    (fun addrs ->
      let m = Program.step (Op.Read 0) in
      let f v = Program.step (Op.Read (v mod 8)) in
      let g v =
        List.fold_left
          (fun acc a -> Program.bind acc (fun _ -> Program.step (Op.Read a)))
          (Program.return v) addrs
      in
      let lhs = Program.bind (Program.bind m f) g in
      let rhs = Program.bind m (fun x -> Program.bind (f x) g) in
      interpret ~respond lhs = interpret ~respond rhs)

(* --- the one-step typed operations against their two-step definitions --- *)

(* The typed operations as they were first written: a raw [step] followed
   by a [let+] over a bind-based [map].  They are the reference the
   one-step operations must agree with. *)
module Reference = struct
  let map f m = Program.bind m (fun x -> Program.return (f x))
  let ( let+ ) m f = map f m
  let step inv = Program.Step (inv, fun v -> Program.Return v)

  let read var =
    let+ v = step (Op.Read (Var.addr var)) in
    Var.decode var v

  let write var x =
    let+ _ = step (Op.Write (Var.addr var, Var.encode var x)) in
    ()

  let cas var ~expected ~update =
    let+ r =
      step
        (Op.Cas (Var.addr var, Var.encode var expected, Var.encode var update))
    in
    r = 1

  let load_linked var =
    let+ v = step (Op.Ll (Var.addr var)) in
    Var.decode var v

  let store_conditional var x =
    let+ r = step (Op.Sc (Var.addr var, Var.encode var x)) in
    r = 1

  let fetch_and_add var delta =
    let+ v = step (Op.Faa (Var.addr var, delta)) in
    v

  let fetch_and_increment var = fetch_and_add var 1

  let fetch_and_store var x =
    let+ v = step (Op.Fas (Var.addr var, Var.encode var x)) in
    Var.decode var v

  let test_and_set var =
    let+ v = step (Op.Tas (Var.addr var)) in
    v <> 0
end

(* Responses covering every decoding branch: negative (NIL), zero, one,
   and other nonzero values. *)
let responses = [ -1; 0; 1; 2; 7 ]

(* [actual] is exactly one [Step] with [expected]'s invocation, and for
   every response its continuation returns at once what [expected]'s
   returns. *)
let same_one_step name (actual : 'a Program.t) (expected : 'a Program.t) =
  let returned = function
    | Program.Return x -> x
    | Program.Step _ -> Alcotest.failf "%s: continuation takes a second step" name
  in
  match (actual, expected) with
  | Program.Step (inv, k), Program.Step (inv', k') ->
    check_true (name ^ ": same invocation") (inv = inv');
    List.iter
      (fun r ->
        check_true
          (Printf.sprintf "%s: same result on response %d" name r)
          (returned (k r) = returned (k' r)))
      responses
  | Program.Return _, _ | _, Program.Return _ ->
    Alcotest.failf "%s: not a single step" name

let test_typed_ops_one_step () =
  let ctx = Var.Ctx.create () in
  let i = Var.Ctx.int ctx ~name:"i" ~home:Var.Shared 0 in
  let b = Var.Ctx.bool ctx ~name:"b" ~home:(Var.Module 1) false in
  let w = Var.Ctx.pid_opt ctx ~name:"w" ~home:Var.Shared None in
  let flags =
    Var.Ctx.bool_vec ctx ~name:"F" ~home:(fun j -> Var.Module j) 4 (fun _ -> false)
  in
  let f2 = Var.vec_get flags 2 in
  let ints = [ -1; 0; 1; 5 ] and bools = [ false; true ] in
  let pids = [ None; Some 0; Some 3 ] in
  let each_var name var xs =
    same_one_step (name ^ " read") (Program.read var) (Reference.read var);
    same_one_step (name ^ " load_linked") (Program.load_linked var)
      (Reference.load_linked var);
    List.iter
      (fun x ->
        same_one_step (name ^ " write") (Program.write var x)
          (Reference.write var x);
        same_one_step (name ^ " store_conditional")
          (Program.store_conditional var x)
          (Reference.store_conditional var x);
        same_one_step (name ^ " fetch_and_store")
          (Program.fetch_and_store var x)
          (Reference.fetch_and_store var x);
        List.iter
          (fun y ->
            same_one_step (name ^ " cas")
              (Program.cas var ~expected:x ~update:y)
              (Reference.cas var ~expected:x ~update:y))
          xs)
      xs
  in
  each_var "int" i ints;
  each_var "bool" b bools;
  each_var "bool vec element" f2 bools;
  each_var "pid option" w pids;
  List.iter
    (fun d ->
      same_one_step "fetch_and_add" (Program.fetch_and_add i d)
        (Reference.fetch_and_add i d))
    ints;
  same_one_step "fetch_and_increment" (Program.fetch_and_increment i)
    (Reference.fetch_and_increment i);
  same_one_step "test_and_set" (Program.test_and_set b) (Reference.test_and_set b);
  same_one_step "test_and_set on a vec element" (Program.test_and_set f2)
    (Reference.test_and_set f2)

(* Two programs agree on every path: the same invocation at every node and
   the same result at every leaf, following each continuation for every
   response in [domain] (to [depth] steps). *)
let rec same_paths ~domain depth p q =
  match (p, q) with
  | Program.Return x, Program.Return y -> x = y
  | Program.Step (i, k), Program.Step (j, l) ->
    i = j
    && (depth = 0
       || List.for_all (fun r -> same_paths ~domain (depth - 1) (k r) (l r)) domain)
  | Program.Return _, Program.Step _ | Program.Step _, Program.Return _ -> false

let prop_map_agrees_with_bind =
  (* A response-branching tree: at each node read the next address; a
     nonzero response continues with the rest, zero stops with the sum of
     the responses so far. *)
  let rec tree acc = function
    | [] -> Program.return acc
    | a :: rest ->
      Program.bind (Program.step (Op.Read a)) (fun r ->
          if r = 0 then Program.return acc else tree (acc + r) rest)
  in
  qcheck "map agrees with bind-then-return on every path"
    QCheck.(pair (small_list (int_bound 7)) (int_bound 5))
    (fun (addrs, c) ->
      let f x = (x * 3) + c in
      let domain = [ 0; 1; 2 ] in
      let m = tree 0 addrs in
      same_paths ~domain 8 (Program.map f m) (Reference.map f m)
      && same_paths ~domain 8 (Program.map f (Program.return c))
           (Reference.map f (Program.return c)))

let suite =
  [ case "return has no steps" test_return_has_no_steps;
    case "bind sequences" test_bind_sequences;
    case "map" test_map;
    case "for_" test_for_;
    case "for_ empty range" test_for_empty;
    case "seq" test_seq;
    case "when_" test_when_;
    case "repeat_until" test_repeat_until;
    case "await spins until predicate" test_await;
    case "typed encode/decode round trip" test_typed_ops_round_trip;
    case "cas result decoding" test_cas_bool_result;
    case "length_exn" test_length_exn;
    case "next_invocation" test_next_invocation;
    case "typed operations are one step, same results" test_typed_ops_one_step;
    prop_bind_assoc;
    prop_map_agrees_with_bind ]
