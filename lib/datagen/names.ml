let first_names =
  [|
    "Marcus"; "Jamal"; "Troy"; "Devin"; "Austin"; "Jordan"; "Tyler";
    "Brandon"; "Caleb"; "Derek"; "Elliott"; "Felix"; "Gavin"; "Hector";
    "Isaiah"; "Julian"; "Kendall"; "Lamar"; "Malik"; "Nolan"; "Omar";
    "Preston"; "Quentin"; "Rashad"; "Silas"; "Terrell"; "Ulysses";
    "Vernon"; "Wesley"; "Xavier"; "Yusuf"; "Zane";
  |]

let last_names =
  [|
    "Bell"; "Carter"; "Dawson"; "Ellison"; "Fletcher"; "Graves"; "Hayes";
    "Irving"; "Jenkins"; "Keller"; "Lawson"; "Mercer"; "Norwood"; "Osborne";
    "Porter"; "Quinn"; "Ramsey"; "Sutton"; "Thornton"; "Underwood";
    "Vaughn"; "Walker"; "Xiong"; "Yates"; "Zeller"; "Abbott"; "Barrett";
    "Calloway"; "Drummond"; "Easton"; "Franklin"; "Gibbs";
  |]

let person rng i =
  Printf.sprintf "P%d_%s_%s" i
    (Prelude.Prng.pick rng first_names)
    (Prelude.Prng.pick rng last_names)

let football_teams =
  [|
    "Aurora_Comets"; "Boulder_Bisons"; "Canton_Chargers"; "Dayton_Drakes";
    "Everett_Eagles"; "Fresno_Falcons"; "Galveston_Giants"; "Hartford_Hawks";
    "Irvine_Ironmen"; "Jackson_Jets"; "Keystone_Kings"; "Lansing_Lynx";
    "Memphis_Mustangs"; "Norfolk_Knights"; "Oakdale_Outlaws";
    "Pueblo_Panthers"; "Quincy_Quakes"; "Raleigh_Raptors"; "Salem_Spartans";
    "Tucson_Titans"; "Utica_Union"; "Vernon_Vikings"; "Wichita_Wolves";
    "Xenia_Xpress"; "Yonkers_Yaks"; "Zephyr_Zealots"; "Albany_Arrows";
    "Bristol_Bears"; "Camden_Cougars"; "Denton_Devils"; "Eugene_Elks";
    "Fargo_Flames";
  |]

let football_clubs =
  [|
    "AC_Belmonte"; "Atletico_Verano"; "CF_Radiante"; "Dynamo_Estrella";
    "FC_Aurelia"; "Fortuna_Maren"; "Inter_Collina"; "Juventus_Arda";
    "Lokomotiv_Vesna"; "Olympique_Clair"; "Racing_Sol"; "Real_Montara";
    "Sporting_Lume"; "Torino_Vela"; "United_Brenta"; "Viktoria_Halm";
    "Wanderers_Costa"; "Athletic_Dorada"; "Borussia_Kern"; "Celtic_Mor";
    "Espanyol_Rio"; "Feyenoord_Lage"; "Galatasaray_Eren"; "Hertha_Blau";
    "Independiente_Luz"; "Kaizer_Thabo"; "Lazio_Perla"; "Monaco_Cren";
    "Napoli_Verde"; "Orlando_Cita"; "Palmeiras_Flor"; "Queens_Parkside";
    "Rangers_Loch"; "Santos_Mar"; "Tottenham_Vale"; "Udinese_Bora";
    "Valencia_Crema"; "Werder_Gruen"; "Xerez_Plata"; "Zenit_Neva";
  |]

let universities =
  [|
    "Ashford_University"; "Blackwell_College"; "Crestview_Institute";
    "Dunmore_University"; "Eastgate_College"; "Fairburn_University";
    "Glenhaven_Institute"; "Holloway_College"; "Ivybrook_University";
    "Juniper_Technical_Institute"; "Kingsford_University";
    "Larkspur_College"; "Montrose_University"; "Northfield_Institute";
    "Oakhurst_College"; "Pinecrest_University";
  |]

let organisations =
  [|
    "Amber_Foundation"; "Beacon_Society"; "Cobalt_Guild"; "Delta_Union";
    "Ember_Collective"; "Fulcrum_Institute"; "Granite_Association";
    "Horizon_League"; "Indigo_Circle"; "Jade_Council"; "Krypton_Board";
    "Lumen_Trust"; "Meridian_Club"; "Nimbus_Network"; "Onyx_Order";
    "Prism_Alliance"; "Quartz_Committee"; "Ridge_Assembly";
    "Sable_Fellowship"; "Topaz_Forum";
  |]

let occupations =
  [|
    "Actor"; "Architect"; "Athlete"; "Chemist"; "Composer"; "Diplomat";
    "Economist"; "Engineer"; "Historian"; "Journalist"; "Jurist";
    "Linguist"; "Mathematician"; "Musician"; "Novelist"; "Painter";
    "Philosopher"; "Physician"; "Physicist"; "Politician"; "Sculptor";
    "Singer"; "Sociologist"; "Teacher";
  |]
