(* Clock, order statistics, /proc readers and the result line. *)

let now = Unix.gettimeofday

(* --- order statistics ------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank percentile; [p] in [0, 100] *)
let percentile xs p =
  match sorted xs with
  | [||] -> 0.
  | a ->
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

(* the midpoint median (mean of the two middle values on even counts) *)
let median xs =
  match sorted xs with
  | [||] -> 0.
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [xs] cut into consecutive runs of [n]; the last may be shorter *)
let rec chunks n xs =
  match List.filteri (fun i _ -> i < n) xs with
  | [] -> []
  | c -> c :: chunks n (List.filteri (fun i _ -> i >= n) xs)

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b
let mean xs = ratio (sum xs) (float_of_int (List.length xs))

(* --- /proc ----------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM (peak resident set) of a live process, in MB *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* user+sys CPU of a live process over all its threads, in seconds *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  (* the command name may hold spaces; fields restart after its ')' *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields 14 and 15 of proc(5), counted in USER_HZ = 100 ticks *)
  let ticks = float_of_string fields.(11) +. float_of_string fields.(12) in
  ticks /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- substring scanning: responses are checked without a JSON parser,
   so the checks share no code with the service's codec *)

let find_from s pat from =
  let n = String.length s and m = String.length pat in
  let rec matches i k = k = m || (s.[i + k] = pat.[k] && matches i (k + 1)) in
  let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
  go from

(* every quoted value following [pat] (a key and its opening quote),
   in order *)
let values_after s pat =
  let rec go from acc =
    match find_from s pat from with
    | -1 -> List.rev acc
    | i ->
      let start = i + String.length pat in
      let stop = String.index_from s start '"' in
      go stop (String.sub s start (stop - start) :: acc)
  in
  go 0 []

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- the result line ------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
