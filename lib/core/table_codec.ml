type rle = (int * int) list

let encode a =
  let n = Array.length a in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let v = a.(i) in
      let j = ref i in
      while !j < n && a.(!j) = v do
        incr j
      done;
      go !j ((v, !j - i) :: acc)
    end
  in
  go 0 []

let decode rle =
  List.iter
    (fun (_, k) -> if k < 1 then invalid_arg "Table_codec.decode: bad repeat")
    rle;
  Array.concat (List.map (fun (v, k) -> Array.make k v) rle)

let encoded_words rle = 2 * List.length rle

let distinct_values a =
  List.length (List.sort_uniq compare (Array.to_list a))

let dictionary_words a =
  let k = distinct_values a in
  let bits_per_entry =
    let rec log2_ceil n acc = if n <= 1 then acc else log2_ceil ((n + 1) / 2) (acc + 1) in
    Int.max 1 (log2_ceil k 0)
  in
  k + (((Array.length a * bits_per_entry) + 63) / 64)

(* serialisation, format 2:
     "v2 j_star jt je t_w_max stride | rle(t_dw_min) | rle(t_dw_max)
      | rle(j_at_min) | rle(j_at_max)"
   with runs as "v*k".  Only format 2 decodes: the store salts its
   file with the codec version (Pcache.engine_salt), so no store
   holds a table in any other format. *)
let version = 2
let rle_to_string rle =
  String.concat "," (List.map (fun (v, k) -> Printf.sprintf "%d*%d" v k) rle)

let rle_of_string s =
  if String.equal s "" then Error "empty run list"
  else
    try
      Ok
        (List.map
           (fun run ->
             match String.split_on_char '*' run with
             | [ v; k ] -> (int_of_string v, int_of_string k)
             | _ -> failwith "run")
           (String.split_on_char ',' s))
    with _ -> Error ("bad run-length field: " ^ s)

let table_to_string (t : Dwell.t) =
  Printf.sprintf "v2 %d %d %d %d %d | %s | %s | %s | %s" t.Dwell.j_star
    t.Dwell.jt t.Dwell.je t.Dwell.t_w_max t.Dwell.stride
    (rle_to_string (encode t.Dwell.t_dw_min))
    (rle_to_string (encode t.Dwell.t_dw_max))
    (rle_to_string (encode t.Dwell.j_at_min))
    (rle_to_string (encode t.Dwell.j_at_max))

let table_of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char '|' s |> List.map String.trim with
  | [ header; f1; f2; f3; f4 ] ->
    let* j_star, jt, je, t_w_max, stride =
      match String.split_on_char ' ' header |> List.filter (fun x -> x <> "") with
      | "v2" :: fields -> (
        match List.map int_of_string fields with
        | [ a; b; c; d; e ] -> Ok (a, b, c, d, e)
        | _ -> Error "bad v2 header shape"
        | exception Failure _ -> Error "bad header integers")
      | _ -> Error "not a v2 table"
    in
    let* r1 = rle_of_string f1 in
    let* r2 = rle_of_string f2 in
    let* r3 = rle_of_string f3 in
    let* r4 = rle_of_string f4 in
    let t =
      {
        Dwell.j_star;
        jt;
        je;
        t_w_max;
        stride;
        t_dw_min = decode r1;
        t_dw_max = decode r2;
        j_at_min = decode r3;
        j_at_max = decode r4;
      }
    in
    let* () = Dwell.validate t in
    Ok t
  | _ -> Error "expected 5 |-separated fields"
