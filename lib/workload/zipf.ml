(* Zipfian key sampling with precomputed cumulative weights: item i
   (0-based) has weight 1/(i+1)^theta. theta = 0 is uniform; theta around
   0.8-1.2 gives the hot-spot skew contended-workload experiments need. *)

open Hermes_kernel

type t = { cdf : float array }

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  (* Guard against rounding: the last bucket must cover 1.0. *)
  cdf.(n - 1) <- 1.0;
  { cdf }

(* Binary search for the first index with cdf >= u. *)
let sample t rng =
  let u = Rng.float rng ~bound:1.0 in
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo
