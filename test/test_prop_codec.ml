(* Round-trip property tests for the two textual codecs: dwell-table
   serialisation (Table_codec) and fault-spec parsing (Faults.Spec).
   Both promise [decode (encode x) = x] on every valid value; random
   generation explores corners the unit tests miss (single-row tables,
   constant arrays, probability formatting, clause orderings). *)

(* ------------------------------------------------------------------ *)
(* Random valid dwell tables (per Dwell.validate) *)

let gen_table =
  QCheck2.Gen.(
    let* rows = int_range 1 8 in
    let* stride = int_range 1 3 in
    let len = rows in
    let t_w_max = stride * (rows - 1) in
    let* j_star = int_range 5 30 in
    let* jt = int_range 1 j_star in
    let* je = int_range (j_star + 1) (j_star + 20) in
    let* t_dw_min = array_repeat len (int_range 1 10) in
    let* slack = array_repeat len (int_range 0 5) in
    let t_dw_max = Array.map2 ( + ) t_dw_min slack in
    let* j_at_min = array_repeat len (int_range 1 j_star) in
    let* j_at_max =
      (* dwelling longer must not worsen settling: max <= min *)
      flatten_a (Array.map (fun j -> int_range 1 j) j_at_min)
    in
    return
      {
        Core.Dwell.j_star;
        jt;
        je;
        t_w_max;
        stride;
        t_dw_min;
        t_dw_max;
        j_at_min;
        j_at_max;
      })

let pp_table t = Format.asprintf "%a" Core.Dwell.pp t

let prop_table_roundtrip =
  QCheck2.Test.make ~name:"table_of_string . table_to_string = id"
    ~count:500 ~print:pp_table gen_table (fun t ->
      (* only valid tables are serialisable; the generator must satisfy
         Dwell.validate by construction *)
      (match Core.Dwell.validate t with
      | Ok () -> ()
      | Error e -> QCheck2.Test.fail_report ("generator broke validate: " ^ e));
      match Core.Table_codec.table_of_string (Core.Table_codec.table_to_string t) with
      | Ok t' -> t' = t
      | Error e -> QCheck2.Test.fail_report ("decode failed: " ^ e))

let prop_rle_roundtrip =
  QCheck2.Test.make ~name:"RLE decode . encode = id (runs)" ~count:500
    QCheck2.Gen.(
      (* runs of repeated values, the shape dwell arrays actually take *)
      let* runs =
        list_size (int_range 1 8)
          (pair (int_range 0 12) (int_range 1 10))
      in
      return
        (Array.concat (List.map (fun (v, n) -> Array.make n v) runs)))
    (fun a -> Core.Table_codec.decode (Core.Table_codec.encode a) = a)

(* ------------------------------------------------------------------ *)
(* Random fault specs *)

let gen_app = QCheck2.Gen.oneofl [ "A"; "B"; "C1"; "Motor" ]

(* probabilities as hundredths: %g prints them exactly, so the parse
   must return the identical float *)
let gen_p = QCheck2.Gen.(map (fun k -> float_of_int k /. 100.) (int_range 0 100))

let gen_clause =
  QCheck2.Gen.(
    oneof
      [
        (let* first = int_range 0 50 in
         let* width = int_range 1 20 in
         return
           (Faults.Spec.Blackout_window { first; until = first + width }));
        (let* p = gen_p in
         let* len = int_range 1 10 in
         return (Faults.Spec.Blackout_random { p; len }));
        (let* app = gen_app in
         let* sample = int_range 0 100 in
         return (Faults.Spec.Et_loss_at { app; sample }));
        (let* app = gen_app in
         let* p = gen_p in
         return (Faults.Spec.Et_loss_random { app; p }));
        (let* app = gen_app in
         let* sample = int_range 0 100 in
         return (Faults.Spec.Sensor_drop_at { app; sample }));
        (let* app = gen_app in
         let* p = gen_p in
         return (Faults.Spec.Sensor_drop_random { app; p }));
        (let* app = gen_app in
         let* start = int_range 0 50 in
         let* count = int_range 1 5 in
         return (Faults.Spec.Burst { app; start; count }));
      ])

let gen_spec = QCheck2.Gen.(list_size (int_range 1 4) gen_clause)

let prop_spec_roundtrip =
  QCheck2.Test.make ~name:"Spec.parse . Spec.to_string = id" ~count:500
    ~print:Faults.Spec.to_string gen_spec (fun s ->
      match Faults.Spec.parse (Faults.Spec.to_string s) with
      | Ok s' -> s' = s
      | Error e -> QCheck2.Test.fail_report ("parse failed: " ^ e))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prop_codec"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest
          [ prop_table_roundtrip; prop_rle_roundtrip; prop_spec_roundtrip ] );
    ]
