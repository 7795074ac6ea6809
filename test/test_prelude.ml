(* Tests for the prelude: deterministic PRNG, growable vectors, timing. *)

module Prng = Prelude.Prng
module Vec = Prelude.Vec

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.int64 a) (Prng.int64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_int_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_prng_range_bounds () =
  let rng = Prng.create 8 in
  for _ = 1 to 10_000 do
    let v = Prng.range rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_prng_float_bounds () =
  let rng = Prng.create 9 in
  for _ = 1 to 10_000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_bernoulli_extremes () =
  let rng = Prng.create 10 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Prng.bernoulli rng 1.0);
    Alcotest.(check bool) "p=0 always false" false (Prng.bernoulli rng 0.0)
  done

let test_prng_bernoulli_rate () =
  let rng = Prng.create 11 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.3" rate)
    true
    (Float.abs (rate -. 0.3) < 0.02)

let test_prng_pick () =
  let rng = Prng.create 14 in
  let pool = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "picked from pool" true
      (Array.mem (Prng.pick rng pool) pool)
  done;
  Alcotest.check_raises "empty list" (Invalid_argument "Prng.pick_list: empty list")
    (fun () -> ignore (Prng.pick_list rng []))

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check int) "fresh is empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 0;
  Alcotest.(check int) "set 7" 0 (Vec.get v 7)

(* A vector holding [xs], in order. *)
let vec xs =
  let v = Vec.create () in
  List.iter (Vec.push v) xs;
  v

let test_vec_bounds () =
  let v = vec [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "set out of bounds"
    (Invalid_argument "Vec.set: index out of bounds") (fun () ->
      Vec.set v (-1) 0)

let test_vec_fold_iter () =
  let v = vec [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check int) "iteri count" 4 (List.length !seen);
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3; 4 |] (Vec.to_array v)

(* Pushes past the initial capacity keep every element, in order. *)
let qcheck_vec_roundtrip =
  QCheck.Test.make ~name:"vec push/to_array roundtrip" ~count:200
    QCheck.(list int)
    (fun l -> Array.to_list (Vec.to_array (vec l)) = l)

let test_vec_iter_order () =
  let v = vec [ 5; 3; 8 ] in
  let seen = ref [] in
  Vec.iter (fun x -> seen := x :: !seen) v;
  Alcotest.(check (list int)) "iter visits in index order" [ 5; 3; 8 ]
    (List.rev !seen);
  let indexed = ref [] in
  Vec.iteri (fun i x -> indexed := (i, x) :: !indexed) v;
  Alcotest.(check (list (pair int int)))
    "iteri pairs each index with its element"
    [ (0, 5); (1, 3); (2, 8) ]
    (List.rev !indexed)

let test_timing_mean () =
  let ms = Prelude.Timing.mean_ms ~runs:3 (fun () -> ignore (Sys.opaque_identity 1)) in
  Alcotest.(check bool) "non-negative" true (ms >= 0.0)

let test_timing_time () =
  let result, ms = Prelude.Timing.time (fun () -> 6 * 7) in
  Alcotest.(check int) "result passed through" 42 result;
  Alcotest.(check bool) "elapsed non-negative" true (ms >= 0.0);
  let ran = ref false in
  let ms = Prelude.Timing.time_ms (fun () -> ran := true) in
  Alcotest.(check bool) "thunk ran" true !ran;
  Alcotest.(check bool) "time_ms non-negative" true (ms >= 0.0)

module Floatlit = Prelude.Floatlit

let bits_equal x s =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float (float_of_string s))

let has_signed_exponent s =
  let n = String.length s in
  let rec scan i =
    i + 1 < n
    && (((s.[i] = 'e' || s.[i] = 'E') && (s.[i + 1] = '+' || s.[i + 1] = '-'))
       || scan (i + 1))
  in
  scan 0

(* Short values keep their short spelling; values whose shortest
   spelling needs a signed exponent are written as plain decimals. *)
let test_floatlit_lexemes () =
  List.iter
    (fun (x, s) ->
      Alcotest.(check string) (Printf.sprintf "%h" x) s (Floatlit.to_lexeme x))
    [ (2.5, "2.5"); (0.1, "0.1"); (1.0, "1"); (-0.75, "-0.75"); (0.9, "0.9") ];
  List.iter
    (fun x ->
      let s = Floatlit.to_lexeme x in
      Alcotest.(check bool) (s ^ " has no signed exponent") false
        (has_signed_exponent s);
      Alcotest.(check bool) (s ^ " round-trips") true (bits_equal x s))
    [ 1e-7; 1e20; 0.1 +. 0.2; 1. /. 3.; 5e-324; Float.max_float ]

let qcheck_floatlit_roundtrip =
  QCheck.Test.make ~name:"floatlit reparses bitwise, no signed exponent"
    ~count:1000 QCheck.float (fun x ->
      QCheck.assume (Float.is_finite x);
      let s = Floatlit.to_lexeme x in
      bits_equal x s && not (has_signed_exponent s))

let qcheck_prng_int_uniformish =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

(* The first 64 outputs of each generator, pinned for three seeds.
   MaxWalkSAT and lib/datagen draw from these streams, so a change to
   the generator's internals (representation, inlining) that shifted a
   stream would silently change every solver answer and every generated
   benchmark input. [float_bits] holds the IEEE bits of [float g 1.0];
   [bernoullis] the outcomes of [bernoulli g 0.3]; [ints] [int g 1000]. *)
type pins = {
  seed : int;
  int64s : int64 array;
  ints : int array;
  float_bits : int64 array;
  bernoullis : string;
  subseeds : int array;
}

let prng_pins =
  [
    {
      seed = 1;
      int64s = [|
        0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL;
        0x71c18690ee42c90bL; 0x71bb54d8d101b5b9L; 0xc34d0bff90150280L;
        0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L; 0x491718de357e3da8L;
        0xcb435c8e74616796L; 0x6775dc7701564f61L; 0x9afcd44d14cf8bfeL;
        0x7476cf8a4baa5dc0L; 0x87b341d690d7a28aL; 0x6f9b6dae6f4c57a8L;
        0x2ac2ce17a5794a3bL; 0xa534a6a6b7fd0b63L; 0xd0bad0da572baaf1L;
        0xae84379630af89eeL; 0xe263183773ef6508L; 0x10e2c46865e98746L;
        0x14d7973c5c2a449cL; 0x7ef1fd0ed1548fcdL; 0x1f8410633ef306acL;
        0x497305c5d1aab99fL; 0xc43407dc177b6f7L; 0x83f91ca7864a7135L;
        0xb6b9aeef0d2df7abL; 0xb331645445bcd27L; 0xff6c67e81909778aL;
        0x990cd70b12c5d084L; 0x962b1967c90789baL; 0x65ace2685a072c6dL;
        0x70616f2f48dce01cL; 0x40d6824e2ef3fc17L; 0x879e2e2256feff0cL;
        0x8b2e02445e4be0f5L; 0xbf8c59bb003553c1L; 0xd16aa4b296eb9d18L;
        0xab27a171be5b133cL; 0xdca0c749607e2c86L; 0xb54b3c40881e2907L;
        0x3c821fbf59108163L; 0xa7ff0d388687ffb2L; 0xde70d1019fc66081L;
        0xd6de6acd12c87e38L; 0x530e0e6118e9685eL; 0x28bff9ea304d9f96L;
        0xe4d9303221373073L; 0xe9a6100461edd57aL; 0x4d4673ef77ba0574L;
        0x21af8cfd4c4cbee5L; 0x536000f4bd6ae8f8L; 0xf0af3ce429ca1790L;
        0x64c70b0b0c5b4a8fL; 0x167587272751ecafL; 0x9b679c859acd7aafL;
        0x27cd5f9ec8c694ccL; 0xf55540b2bff06252L; 0xe02852925a4dc852L;
        0x86c5d1b05ce2ce14L; 0x1180b23a1075b77fL; 0xc09a1a817914ffbcL;
        0x88b894e1401ed25bL;
      |];
      ints = [|
        616; 129; 647; 58; 190; 512; 761; 133; 130; 237; 184; 967; 696; 130; 954; 934;
        888; 60; 3; 298; 361; 911; 371; 419; 935; 789; 677; 202; 57; 738; 9; 230;
        523; 839; 493; 195; 13; 720; 422; 191; 145; 769; 488; 4; 480; 318; 559; 429;
        204; 54; 693; 809; 542; 412; 347; 19; 155; 723; 124; 436; 925; 79; 855; 550;
      |];
      float_bits = [|
        0x3fe22145bd91204bL; 0x3fe7dd71b42cb1ddL; 0x3fef12745ddf664aL;
        0x3fdc7061a43b90b2L; 0x3fdc6ed53634406cL; 0x3fe869a17ff202a0L;
        0x3fec133d8d9ae6c7L; 0x3fe0bcf761e244f0L; 0x3fd245c6378d5f8eL;
        0x3fe9686b91ce8c2cL; 0x3fd9dd771dc05592L; 0x3fe35f9a89a299f1L;
        0x3fdd1db3e292ea96L; 0x3fe0f6683ad21af4L; 0x3fdbe6db6b9bd314L;
        0x3fc561670bd2bca4L; 0x3fe4a694d4d6ffa1L; 0x3fea175a1b4ae575L;
        0x3fe5d086f2c615f1L; 0x3fec4c6306ee7decL; 0x3fb0e2c46865e980L;
        0x3fb4d7973c5c2a40L; 0x3fdfbc7f43b45522L; 0x3fbf8410633ef300L;
        0x3fd25cc171746aaeL; 0x3fa88680fb82ef60L; 0x3fe07f2394f0c94eL;
        0x3fe6d735dde1a5beL; 0x3fa6662c8a88b790L; 0x3fefed8cfd03212eL;
        0x3fe3219ae16258baL; 0x3fe2c5632cf920f1L; 0x3fd96b389a1681caL;
        0x3fdc185bcbd23738L; 0x3fd035a0938bbcfeL; 0x3fe0f3c5c44adfdfL;
        0x3fe165c0488bc97cL; 0x3fe7f18b376006aaL; 0x3fea2d549652dd73L;
        0x3fe564f42e37cb62L; 0x3feb9418e92c0fc5L; 0x3fe6a967881103c5L;
        0x3fce410fdfac8840L; 0x3fe4ffe1a710d0ffL; 0x3febce1a2033f8ccL;
        0x3feadbcd59a2590fL; 0x3fd4c38398463a5aL; 0x3fc45ffcf51826ccL;
        0x3fec9b26064426e6L; 0x3fed34c2008c3dbaL; 0x3fd3519cfbddee80L;
        0x3fc0d7c67ea6265cL; 0x3fd4d8003d2f5abaL; 0x3fee15e79c853942L;
        0x3fd931c2c2c316d2L; 0x3fb67587272751e8L; 0x3fe36cf390b359afL;
        0x3fc3e6afcf646348L; 0x3feeaaa81657fe0cL; 0x3fec050a524b49b9L;
        0x3fe0d8ba360b9c59L; 0x3fb180b23a1075b0L; 0x3fe81343502f229fL;
        0x3fe117129c2803daL;
      |];
      bernoullis = "0000000010000001000011011100100000100000001000010001000101000100";
      subseeds = [|
        0x24428b7b22409730; 0x2fbae3685963bb19; 0x3e24e8bbbecc9557;
        0x1c7061a43b90b242; 0x1c6ed53634406d6e; 0x30d342ffe40540a0;
        0x38267b1b35cd8f29; 0x2179eec3c489e15d; 0x1245c6378d5f8f6a;
        0x32d0d7239d1859e5; 0x19dd771dc05593d8; 0x26bf35134533e2ff;
        0x1d1db3e292ea9770; 0x21ecd075a435e8a2; 0x1be6db6b9bd315ea;
        0xab0b385e95e528e; 0x294d29a9adff42d8; 0x342eb43695caeabc;
        0x2ba10de58c2be27b; 0x3898c60ddcfbd942; 0x438b11a197a61d1;
        0x535e5cf170a9127; 0x1fbc7f43b45523f3; 0x7e10418cfbcc1ab;
        0x125cc171746aae67; 0x310d01f705dedbd; 0x20fe4729e1929c4d;
        0x2dae6bbbc34b7dea; 0x2ccc5915116f349; 0x3fdb19fa06425de2;
        0x264335c2c4b17421; 0x258ac659f241e26e; 0x196b389a1681cb1b;
        0x1c185bcbd2373807; 0x1035a0938bbcff05; 0x21e78b8895bfbfc3;
        0x22cb80911792f83d; 0x2fe3166ec00d54f0; 0x345aa92ca5bae746;
        0x2ac9e85c6f96c4cf; 0x372831d2581f8b21; 0x2d52cf1022078a41;
        0xf2087efd6442058; 0x29ffc34e21a1ffec; 0x379c344067f19820;
        0x35b79ab344b21f8e; 0x14c38398463a5a17; 0xa2ffe7a8c1367e5;
        0x39364c0c884dcc1c; 0x3a698401187b755e; 0x13519cfbddee815d;
        0x86be33f53132fb9; 0x14d8003d2f5aba3e; 0x3c2bcf390a7285e4;
        0x1931c2c2c316d2a3; 0x59d61c9c9d47b2b; 0x26d9e72166b35eab;
        0x9f357e7b231a533; 0x3d55502caffc1894; 0x380a14a496937214;
        0x21b1746c1738b385; 0x4602c8e841d6ddf; 0x302686a05e453fef;
        0x222e25385007b496;
      |];
    };
    {
      seed = 7;
      int64s = [|
        0x63cbe1e459320dd7L; 0x44c3cd7f43c661cL; 0xe6984080bab12a02L;
        0x953aeb70673e29cbL; 0x73d33b666a1e21daL; 0x3fdabe86cbbeaa11L;
        0x77cbc4a133c2d0f6L; 0x53fcd6513d02befeL; 0x225ec07a99506761L;
        0x69c3a27688795369L; 0x1a82e79b05b5faebL; 0xf5ba4eb728dd632cL;
        0xeb0354df4a45b34eL; 0xdf0f9924a3016430L; 0xdd2f9b2d0b5f15e6L;
        0x8c5c906b1aeb85f8L; 0xe12e5d006cd3d6afL; 0x538c6a0cda7326c7L;
        0x9e7eb00e4c9c9e35L; 0xc1dfda7a5eb236f8L; 0xacb06798004bbc2fL;
        0x1b5051c62d0332cdL; 0x582d6717a91d279dL; 0x6c7c5b1c60b890ffL;
        0xe70cd6df5d49ce30L; 0xf5d81f333a1fb9e9L; 0x13a16201310d9abaL;
        0x683409b1f2fb545fL; 0xe6df52ffdf834b47L; 0x6a3f7fb9fcd4241dL;
        0xf89c5aca8c448a78L; 0xde2b0ab6b89f8acL; 0x62184fdaeffa95c8L;
        0x4857c52e70ded4d2L; 0x8eb67bb2bf528e01L; 0x9b5554bef5ebf42bL;
        0x1363f25caeb7c570L; 0xef6841424a61a275L; 0x35e1803bf4585807L;
        0x2d0d723fd1859e5bL; 0xa4d4f04889d20de1L; 0xeb7a07aacd555fc9L;
        0x61cc42d4094b9c40L; 0xef74aa7dd7f4aecL; 0xa45f286b9e7d382L;
        0x51ce3318362240f6L; 0x880e43ed5da9a60fL; 0xd3f183c986aec07eL;
        0xd868da3886729b56L; 0xa4d21225283af2e8L; 0xabaab8919ec9278aL;
        0x5c90961b7f936d22L; 0x10987a47c025a152L; 0x40a76d853561f4e6L;
        0x92d2510fbb0ec12bL; 0x38dda1232865cd13L; 0x7fa5a4e0c4f4480eL;
        0x55f053ed7217c6a7L; 0x9211e20229fc1eaaL; 0x9dc443bfb29af542L;
        0x5aee8a91c100fde6L; 0x5edecf33512736daL; 0xdfcd10ef51504e8aL;
        0x66cd25813e9b65b8L;
      |];
      ints = [|
        621; 951; 336; 50; 918; 76; 949; 295; 496; 106; 770; 379; 747; 836; 297; 670;
        331; 497; 949; 750; 435; 387; 703; 703; 540; 226; 726; 559; 833; 791; 558; 955;
        818; 404; 0; 162; 492; 117; 601; 182; 208; 26; 432; 995; 0; 37; 451; 807;
        989; 274; 66; 32; 244; 385; 514; 740; 811; 841; 138; 208; 265; 446; 962; 590;
      |];
      float_bits = [|
        0x3fd8f2f879164c82L; 0x3f9130f35fd0f180L; 0x3fecd30810175625L;
        0x3fe2a75d6e0ce7c5L; 0x3fdcf4ced99a8788L; 0x3fcfed5f4365df54L;
        0x3fddf2f1284cf0b4L; 0x3fd4ff35944f40aeL; 0x3fc12f603d4ca830L;
        0x3fda70e89da21e54L; 0x3fba82e79b05b5f8L; 0x3feeb749d6e51bacL;
        0x3fed606a9be948b6L; 0x3febe1f32494602cL; 0x3feba5f365a16be2L;
        0x3fe18b920d635d70L; 0x3fec25cba00d9a7aL; 0x3fd4e31a83369cc8L;
        0x3fe3cfd601c99393L; 0x3fe83bfb4f4bd646L; 0x3fe5960cf3000977L;
        0x3fbb5051c62d0330L; 0x3fd60b59c5ea4748L; 0x3fdb1f16c7182e24L;
        0x3fece19adbeba939L; 0x3feebb03e66743f7L; 0x3fb3a16201310d98L;
        0x3fda0d026c7cbed4L; 0x3fecdbea5ffbf069L; 0x3fda8fdfee7f3508L;
        0x3fef138b59518891L; 0x3fabc56156d713f0L; 0x3fd88613f6bbfea4L;
        0x3fd215f14b9c37b4L; 0x3fe1d6cf7657ea51L; 0x3fe36aaa97debd7eL;
        0x3fb363f25caeb7c0L; 0x3feded0828494c34L; 0x3fcaf0c01dfa2c2cL;
        0x3fc686b91fe8c2ccL; 0x3fe49a9e09113a41L; 0x3fed6f40f559aaabL;
        0x3fd87310b50252e6L; 0x3fadee954fbafe90L; 0x3fa48be50d73cfa0L;
        0x3fd4738cc60d8890L; 0x3fe101c87dabb534L; 0x3fea7e307930d5d8L;
        0x3feb0d1b4710ce53L; 0x3fe49a4244a5075eL; 0x3fe575571233d924L;
        0x3fd7242586dfe4daL; 0x3fb0987a47c025a0L; 0x3fd029db614d587cL;
        0x3fe25a4a21f761d8L; 0x3fcc6ed0919432e4L; 0x3fdfe96938313d12L;
        0x3fd57c14fb5c85f0L; 0x3fe2423c40453f83L; 0x3fe3b88877f6535eL;
        0x3fd6bba2a470403eL; 0x3fd7b7b3ccd449ccL; 0x3febf9a21dea2a09L;
        0x3fd9b349604fa6d8L;
      |];
      bernoullis = "0100010010100000000001000010000101001011000110000000110100000000";
      subseeds = [|
        0x18f2f879164c8375; 0x1130f35fd0f1987; 0x39a610202eac4a80;
        0x254ebadc19cf8a72; 0x1cf4ced99a878876; 0xff6afa1b2efaa84;
        0x1df2f1284cf0b43d; 0x14ff35944f40afbf; 0x897b01ea65419d8;
        0x1a70e89da21e54da; 0x6a0b9e6c16d7eba; 0x3d6e93adca3758cb;
        0x3ac0d537d2916cd3; 0x37c3e64928c0590c; 0x374be6cb42d7c579;
        0x2317241ac6bae17e; 0x384b97401b34f5ab; 0x14e31a83369cc9b1;
        0x279fac039327278d; 0x3077f69e97ac8dbe; 0x2b2c19e60012ef0b;
        0x6d414718b40ccb3; 0x160b59c5ea4749e7; 0x1b1f16c7182e243f;
        0x39c335b7d752738c; 0x3d7607ccce87ee7a; 0x4e858804c4366ae;
        0x1a0d026c7cbed517; 0x39b7d4bff7e0d2d1; 0x1a8fdfee7f350907;
        0x3e2716b2a311229e; 0x378ac2adae27e2b; 0x188613f6bbfea572;
        0x1215f14b9c37b534; 0x23ad9eecafd4a380; 0x26d5552fbd7afd0a;
        0x4d8fc972badf15c; 0x3bda10509298689d; 0xd78600efd161601;
        0xb435c8ff4616796; 0x29353c1222748378; 0x3ade81eab35557f2;
        0x187310b50252e710; 0x3bdd2a9f75fd2bb; 0x2917ca1ae79f4e0;
        0x14738cc60d88903d; 0x220390fb576a6983; 0x34fc60f261abb01f;
        0x361a368e219ca6d5; 0x293484894a0ebcba; 0x2aeaae2467b249e2;
        0x17242586dfe4db48; 0x4261e91f0096854; 0x1029db614d587d39;
        0x24b49443eec3b04a; 0xe376848ca197344; 0x1fe96938313d1203;
        0x157c14fb5c85f1a9; 0x248478808a7f07aa; 0x277110efeca6bd50;
        0x16bba2a470403f79; 0x17b7b3ccd449cdb6; 0x37f3443bd45413a2;
        0x19b349604fa6d96e;
      |];
    };
    {
      seed = 123456789;
      int64s = [|
        0x223c74d93deb7679L; 0x7a91dd183971ee2eL; 0x310e0831409afde5L;
        0x851e061616a5bee5L; 0x1a1d587cd12d2d6bL; 0xb34f7324f11d12deL;
        0xd5c55b979d86d5c2L; 0xc56da70a99d3435cL; 0x8beb9c696719cfabL;
        0x95eff5805e2d32edL; 0xde9113334e7ec7a9L; 0x951ad45a4de4f516L;
        0x8780eddae7fa3c59L; 0x341eda777dc6bafdL; 0x1845f8b4bad0fffbL;
        0x14efe7a689f2f97cL; 0x1a8d40037d141e74L; 0x28357a61d0ef0f92L;
        0x850ee4cca0cf2bb5L; 0x9cb46745ff87adbeL; 0xf00a38d3dbfa5fdcL;
        0x88d14b32a63bbcaeL; 0xaaa3b3a35e35b15dL; 0xb3b60a4549f76ea9L;
        0x6d14981b1a4e2c9bL; 0x91d8234680c978aL; 0x4ba77a9d3c765ab4L;
        0xd4b9df69a1d62a65L; 0x6015028878a72d68L; 0x171a7d09b0813d12L;
        0xdb3cdc6ff29f04aaL; 0xe3bfaba3f74b5b7aL; 0xada12ed2e9cc2e51L;
        0x28b9c21b495a9d78L; 0xe9d781485b5ec588L; 0x295f652aefbcb681L;
        0x96f9b659233420a1L; 0x9229fe50ab145aeL; 0xbf721079179fedd8L;
        0x935822944daf8878L; 0x5cd2f263dcee4cedL; 0x9fc093b91e8ac528L;
        0x9ed153a2f82f7c38L; 0x4337b6c1557949a2L; 0x209750bc2942ab85L;
        0x9a9e5997dcc17648L; 0xa42d7a4eb53bc341L; 0x1771bf731b64ec57L;
        0x78d14eddeaae9d19L; 0x4934312c6362c3faL; 0xb7e4b70b71dab1f8L;
        0x41af46db47b11a8L; 0xb9d31261f26a7253L; 0xf20f2217156b09c4L;
        0x42878424d800f34aL; 0x31264a69da28ff5aL; 0xe7937e057ce5ab09L;
        0x77c7672fa56213c8L; 0x62d0a7c1dd3b35edL; 0xc9ddec48f81d46d2L;
        0x9a4eea9cb2da63bfL; 0xb56097f0fa67ca2eL; 0xe62b70fbd97f011L;
        0x30857ab9dee329dfL;
      |];
      ints = [|
        974; 691; 281; 849; 810; 423; 592; 959; 802; 179; 562; 813; 278; 935; 662; 767;
        725; 652; 421; 591; 239; 795; 79; 402; 982; 602; 581; 313; 874; 260; 402; 670;
        732; 414; 538; 904; 776; 691; 718; 470; 187; 882; 478; 304; 969; 450; 872; 461;
        598; 142; 734; 434; 652; 233; 90; 798; 554; 250; 515; 700; 975; 643; 764; 487;
      |];
      float_bits = [|
        0x3fc11e3a6c9ef5b8L; 0x3fdea477460e5c7aL; 0x3fc8870418a04d7cL;
        0x3fe0a3c0c2c2d4b7L; 0x3fba1d587cd12d28L; 0x3fe669ee649e23a2L;
        0x3feab8ab72f3b0daL; 0x3fe8adb4e1533a68L; 0x3fe17d738d2ce339L;
        0x3fe2bdfeb00bc5a6L; 0x3febd2226669cfd8L; 0x3fe2a35a8b49bc9eL;
        0x3fe0f01dbb5cff47L; 0x3fca0f6d3bbee35cL; 0x3fb845f8b4bad0f8L;
        0x3fb4efe7a689f2f8L; 0x3fba8d40037d1418L; 0x3fc41abd30e87784L;
        0x3fe0a1dc999419e5L; 0x3fe3968ce8bff0f5L; 0x3fee01471a7b7f4bL;
        0x3fe11a296654c777L; 0x3fe55476746bc6b6L; 0x3fe676c148a93eedL;
        0x3fdb452606c6938aL; 0x3fa23b0468d01920L; 0x3fd2e9dea74f1d96L;
        0x3fea973bed343ac5L; 0x3fd80540a21e29caL; 0x3fb71a7d09b08138L;
        0x3feb679b8dfe53e0L; 0x3fec77f5747ee96bL; 0x3fe5b425da5d3985L;
        0x3fc45ce10da4ad4cL; 0x3fed3af0290b6bd8L; 0x3fc4afb29577de58L;
        0x3fe2df36cb246684L; 0x3fa2453fca156280L; 0x3fe7ee420f22f3fdL;
        0x3fe26b045289b5f1L; 0x3fd734bc98f73b92L; 0x3fe3f8127723d158L;
        0x3fe3da2a745f05efL; 0x3fd0cdedb0555e52L; 0x3fc04ba85e14a154L;
        0x3fe353cb32fb982eL; 0x3fe485af49d6a778L; 0x3fb771bf731b64e8L;
        0x3fde3453b77aaba6L; 0x3fd24d0c4b18d8b0L; 0x3fe6fc96e16e3b56L;
        0x3f906bd1b6d1ec40L; 0x3fe73a624c3e4d4eL; 0x3fee41e442e2ad61L;
        0x3fd0a1e10936003cL; 0x3fc8932534ed147cL; 0x3fecf26fc0af9cb5L;
        0x3fddf1d9cbe95884L; 0x3fd8b429f0774eccL; 0x3fe93bbd891f03a8L;
        0x3fe349dd53965b4cL; 0x3fe6ac12fe1f4cf9L; 0x3facc56e1f7b2fe0L;
        0x3fc842bd5cef7194L;
      |];
      bernoullis = "1010100000000111110000000110010001010100000110010101001100000011";
      subseeds = [|
        0x88f1d364f7add9e; 0x1ea477460e5c7b8b; 0xc43820c5026bf79;
        0x2147818585a96fb9; 0x687561f344b4b5a; 0x2cd3dcc93c4744b7;
        0x357156e5e761b570; 0x315b69c2a674d0d7; 0x22fae71a59c673ea;
        0x257bfd60178b4cbb; 0x37a444ccd39fb1ea; 0x2546b51693793d45;
        0x21e03b76b9fe8f16; 0xd07b69ddf71aebf; 0x6117e2d2eb43ffe;
        0x53bf9e9a27cbe5f; 0x6a35000df45079d; 0xa0d5e98743bc3e4;
        0x2143b9332833caed; 0x272d19d17fe1eb6f; 0x3c028e34f6fe97f7;
        0x223452cca98eef2b; 0x2aa8ece8d78d6c57; 0x2ced8291527ddbaa;
        0x1b452606c6938b26; 0x247608d1a0325e2; 0x12e9dea74f1d96ad;
        0x352e77da68758a99; 0x180540a21e29cb5a; 0x5c69f426c204f44;
        0x36cf371bfca7c12a; 0x38efeae8fdd2d6de; 0x2b684bb4ba730b94;
        0xa2e7086d256a75e; 0x3a75e05216d7b162; 0xa57d94abbef2da0;
        0x25be6d9648cd0828; 0x248a7f942ac516b; 0x2fdc841e45e7fb76;
        0x24d608a5136be21e; 0x1734bc98f73b933b; 0x27f024ee47a2b14a;
        0x27b454e8be0bdf0e; 0x10cdedb0555e5268; 0x825d42f0a50aae1;
        0x26a79665f7305d92; 0x290b5e93ad4ef0d0; 0x5dc6fdcc6d93b15;
        0x1e3453b77aaba746; 0x124d0c4b18d8b0fe; 0x2df92dc2dc76ac7e;
        0x106bd1b6d1ec46a; 0x2e74c4987c9a9c94; 0x3c83c885c55ac271;
        0x10a1e10936003cd2; 0xc49929a768a3fd6; 0x39e4df815f396ac2;
        0x1df1d9cbe95884f2; 0x18b429f0774ecd7b; 0x32777b123e0751b4;
        0x2693baa72cb698ef; 0x2d5825fc3e99f28b; 0x398adc3ef65fc04;
        0xc215eae77b8ca77;
      |];
    };
  ]

let test_prng_stream_pins () =
  List.iter
    (fun p ->
      let n = 64 in
      let draws f =
        let rng = Prng.create p.seed in
        Array.init n (fun _ -> f rng)
      in
      let name what = Printf.sprintf "seed %d %s" p.seed what in
      Alcotest.(check (array int64)) (name "int64") p.int64s (draws Prng.int64);
      Alcotest.(check (array int)) (name "int") p.ints
        (draws (fun g -> Prng.int g 1000));
      Alcotest.(check (array int64)) (name "float") p.float_bits
        (draws (fun g -> Int64.bits_of_float (Prng.float g 1.0)));
      Alcotest.(check string) (name "bernoulli") p.bernoullis
        (String.concat ""
           (Array.to_list
              (draws (fun g -> if Prng.bernoulli g 0.3 then "1" else "0"))));
      Alcotest.(check (array int)) (name "subseed") p.subseeds
        (Array.init n (Prng.subseed p.seed)))
    prng_pins

let () =
  Alcotest.run "prelude"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "range bounds" `Quick test_prng_range_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
          Alcotest.test_case "pick" `Quick test_prng_pick;
          Alcotest.test_case "stream pins" `Quick test_prng_stream_pins;
          QCheck_alcotest.to_alcotest qcheck_prng_int_uniformish;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "fold/iter/to_array" `Quick test_vec_fold_iter;
          Alcotest.test_case "iter order" `Quick test_vec_iter_order;
          QCheck_alcotest.to_alcotest qcheck_vec_roundtrip;
        ] );
      ( "timing",
        [
          Alcotest.test_case "mean_ms" `Quick test_timing_mean;
          Alcotest.test_case "time/time_ms" `Quick test_timing_time;
        ] );
      ( "floatlit",
        [
          Alcotest.test_case "lexemes" `Quick test_floatlit_lexemes;
          QCheck_alcotest.to_alcotest qcheck_floatlit_roundtrip;
        ] );
    ]
