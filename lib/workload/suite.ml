let all =
  [
    Spec_gzip.spec;
    Spec_vpr.spec;
    Spec_gcc.spec;
    Spec_mcf.spec;
    Spec_crafty.spec;
    Spec_parser.spec;
    Spec_eon.spec;
    Spec_perlbmk.spec;
    Spec_gap.spec;
    Spec_vortex.spec;
    Spec_bzip2.spec;
    Spec_twolf.spec;
  ]

let find name = List.find_opt (fun (s : Spec.t) -> String.equal s.Spec.name name) all
let grid xs = List.concat_map (fun spec -> List.map (fun x -> (spec, x)) xs) all
let names = List.map (fun (s : Spec.t) -> s.Spec.name) all
