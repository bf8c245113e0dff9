(* Order statistics of a metric's samples. Quartiles use the "exclusive"
   method of Python's statistics.quantiles(values, n=4), so the spreads this
   benchmark reports match the ones computed from its dumps in Python. *)

type t = { q1 : float; median : float; q3 : float; n : int }

let of_samples samples =
  let data = Array.of_list samples in
  Array.sort Float.compare data;
  let len = Array.length data in
  match len with
  | 0 -> invalid_arg "Summary.of_samples: no samples"
  | 1 -> { q1 = data.(0); median = data.(0); q3 = data.(0); n = 1 }
  | _ ->
      let m = len + 1 in
      let cut i =
        let j = max 1 (min (len - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((data.(j - 1) *. float_of_int (4 - delta)) +. (data.(j) *. float_of_int delta)) /. 4.0
      in
      { q1 = cut 1; median = cut 2; q3 = cut 3; n = len }
