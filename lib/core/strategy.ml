type t = Isa | Cls | Aggregation | Cls_aggregation | Cls_hand

let all = [ Isa; Cls; Aggregation; Cls_aggregation; Cls_hand ]

let to_string = function
  | Isa -> "isa"
  | Cls -> "cls"
  | Aggregation -> "aggregation"
  | Cls_aggregation -> "cls+aggregation"
  | Cls_hand -> "cls+hand"

let names = List.map to_string all

let aliases =
  [ ("agg", Aggregation);
    ("cls+agg", Cls_aggregation);
    ("cls_aggregation", Cls_aggregation);
    ("cls_agg", Cls_aggregation);
    ("hand", Cls_hand) ]

let of_string s =
  match List.find_opt (fun x -> to_string x = s) all with
  | Some x -> x
  | None ->
    (match List.assoc_opt s aliases with
     | Some x -> x
     | None ->
       invalid_arg
         (Printf.sprintf "Strategy.of_string: unknown %S (expected %s)" s
            (String.concat " | " names)))

let pp ppf s = Format.pp_print_string ppf (to_string s)

let passes = function
  | Isa -> Stages.isa
  | Cls -> Stages.cls
  | Aggregation -> Stages.aggregation
  | Cls_aggregation -> Stages.cls_aggregation
  | Cls_hand -> Stages.cls_hand

let final = function
  | Isa -> (Stages.Serial, Qsched.Asap.schedule)
  | Cls | Cls_hand -> (Stages.Serial, Qsched.Cls.schedule)
  | Aggregation -> (Stages.Model, Qsched.Asap.schedule)
  | Cls_aggregation -> (Stages.Model, Qsched.Cls.schedule)
