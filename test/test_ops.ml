(* The operation runner shared by the CLI and the serve daemon: daemon
   results locked by goldens, every CLI verb byte-identical (stdout and
   exit code) to the CLI rendering of the outcome the daemon reaches for
   the equivalent JSON request, and .nm storms and simulations equal to
   their built-in twins at any job count. *)

module Json = Obs.Json
module Proto = Serve.Proto

let read_file = Test_lang.read_file
let model_path name = Test_lang.model_path (name ^ ".nm")

let cli_path =
  Test_lang.locate
    [ "../bin/nonmask_cli.exe"; "_build/default/bin/nonmask_cli.exe" ]

(* One job through Serve.Job exactly as the daemon's executor runs it. *)
let serve_run ?model op options =
  let req =
    {
      Proto.id = Json.Int 1;
      op;
      model = Option.map (fun m -> read_file (model_path m)) model;
      options;
    }
  in
  match Serve.Job.prepare req with
  | Error (_, msg) -> Alcotest.fail msg
  | Ok p ->
      Par.Pool.with_pool ~jobs:2 (fun pool ->
          Serve.Job.run ~pool ~obs:Obs.Ctx.disabled ~guard:Rt.Guard.inert p)

(* The CLI binary's exit code and stdout. *)
let cli args =
  let out = Filename.temp_file "nonmask_ops" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command cli_path args ~stdout:out
             ~stderr:Filename.null)
      in
      (code, read_file out))

(* Every case once: its golden name, the daemon's outcome, and the CLI
   invocations that must reproduce it — storms at --jobs 1 and 2. *)
let cases =
  lazy
    (List.concat_map
       (fun m ->
         let path = model_path m in
         let engine = [ "--engine"; "lazy" ] in
         [
           ( "check_" ^ m,
             serve_run ~model:m Proto.Check [],
             [ [ "check"; path ] @ engine ] );
           ( "certify_" ^ m,
             serve_run ~model:m Proto.Certify
               [ ("faults", Json.Str "corrupt:k=1") ],
             [ [ "certify"; path; "--faults"; "corrupt:k=1" ] @ engine ] );
           ( "tolerance_" ^ m,
             serve_run ~model:m Proto.Tolerance
               [ ("budget_max", Json.Int 2); ("adversary", Json.Bool true) ],
             [
               [ "tolerance"; path; "--budget-max"; "2"; "--adversary" ]
               @ engine;
             ] );
           ( "storm_" ^ m,
             serve_run ~model:m Proto.Storm
               [ ("trials", Json.Int 50); ("seed", Json.Int 7) ],
             List.map
               (fun jobs ->
                 [ "storm"; path; "--trials"; "50"; "--seed"; "7" ]
                 @ [ "--jobs"; jobs ])
               [ "1"; "2" ] );
         ])
       [ "token_ring"; "diffusing"; "xyz" ]
    @ [
        ( "fuzz",
          serve_run Proto.Fuzz
            [ ("seed", Json.Int 42); ("count", Json.Int 20) ],
          [ [ "fuzz"; "--seed"; "42"; "--count"; "20"; "--jobs"; "2" ] ] );
      ])

let test_serve_goldens () =
  List.iter
    (fun (name, (o : Ops.outcome), _) ->
      Alcotest.(check string)
        name
        (read_file (Test_lang.golden_path ("serve_" ^ name ^ ".json")))
        (Json.to_string (Ops.result o) ^ "\n"))
    (Lazy.force cases)

let test_cli_matches_serve () =
  List.iter
    (fun (_, (o : Ops.outcome), invocations) ->
      List.iter
        (fun args ->
          let label = String.concat " " args in
          let code, stdout = cli args in
          Alcotest.(check int) (label ^ ": exit code") o.exit_code code;
          Alcotest.(check string)
            (label ^ ": stdout") (Lazy.force o.text) stdout)
        invocations)
    (Lazy.force cases)

(* Every trial starts from a fresh copy of the model's legitimate state,
   so a .nm model's simulation statistics equal its built-in twin's. *)
let test_simulate_twin () =
  let stats args =
    let code, out =
      cli (("simulate" :: args) @ [ "--faults"; "1"; "--seed"; "7" ])
    in
    Alcotest.(check int) "exit" 0 code;
    match String.index_opt out ':' with
    | Some i -> String.sub out i (String.length out - i)
    | None -> Alcotest.fail out
  in
  Alcotest.(check string)
    "token_ring.nm = token-ring 5 (K=6)"
    (stats [ "token-ring"; "--nodes"; "5"; "-k"; "6" ])
    (stats [ model_path "token_ring" ])

let suite =
  [
    Alcotest.test_case "serve results match the goldens" `Quick
      test_serve_goldens;
    Alcotest.test_case "CLI verbs match serve outcomes" `Quick
      test_cli_matches_serve;
    Alcotest.test_case "simulate: .nm model matches its twin" `Quick
      test_simulate_twin;
  ]
