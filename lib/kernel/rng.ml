(* Deterministic randomness.

   Every run of the simulator is reproducible from a single integer seed.
   Components derive independent sub-streams with [split], so adding a
   random draw in one component does not perturb the stream seen by
   another — a property the experiment sweeps rely on. *)

type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x2cA; 0x1992 |]

let split t ~label =
  let h = Hashtbl.hash label in
  Random.State.make [| Random.State.bits t; h; Random.State.bits t |]

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int t bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + Random.State.int t (hi - lo + 1)

let float t ~bound = Random.State.float t bound
let bool t ~p = Random.State.float t 1.0 < p

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(Random.State.int t (Array.length arr))

(* Exponentially distributed integer delay with the given mean, truncated
   below at 1 tick. Used for think times and failure inter-arrival times. *)
let exponential t ~mean =
  if mean <= 0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = Random.State.float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  max 1 (int_of_float (-.float_of_int mean *. log u))

let shuffle t arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a
