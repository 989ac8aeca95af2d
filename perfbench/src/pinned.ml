(* Every cell's outcome on the default seed, as the simulator produced it
   when the benchmark was written (regenerate with [--pin]).  Floats are
   hexadecimal literals so they compare bit for bit. *)

open Cells

let table : (string * string * outcome) list =
  [
    ("legacy-grid", "internet/legacy@1", { fraction_completed = 0x1p+0; avg_transfer_time = 0x1.48a7cb643112p-2; events = 146639; sim_end = 0x1.0293feb66df13p+4; attempted = 500; completed = 500; aborted = 0 });
    ("legacy-grid", "internet/legacy@10", { fraction_completed = 0x1.cbc14e5e0a72fp-1; avg_transfer_time = 0x1.4db797f2906eep+1; events = 280312; sim_end = 0x1.ep+4; attempted = 98; completed = 88; aborted = 0 });
    ("legacy-grid", "internet/legacy@40", { fraction_completed = 0x0p+0; avg_transfer_time = nan; events = 600378; sim_end = 0x1.ep+4; attempted = 12; completed = 0; aborted = 2 });
    ("legacy-grid", "internet/legacy@100", { fraction_completed = 0x0p+0; avg_transfer_time = nan; events = 1275301; sim_end = 0x1.ep+4; attempted = 19; completed = 0; aborted = 9 });
    ("legacy-grid", "siff/legacy@1", { fraction_completed = 0x1p+0; avg_transfer_time = 0x1.45237056f1755p-2; events = 146487; sim_end = 0x1.ff9eb6a6f9f3bp+3; attempted = 500; completed = 500; aborted = 0 });
    ("legacy-grid", "siff/legacy@10", { fraction_completed = 0x1.fbbbbbbbbbbbcp-1; avg_transfer_time = 0x1.2ee61a31294c8p-1; events = 348320; sim_end = 0x1.ep+4; attempted = 480; completed = 476; aborted = 0 });
    ("legacy-grid", "siff/legacy@40", { fraction_completed = 0x1.a20e177c7a20ep-1; avg_transfer_time = 0x1.0f8a4099d4be9p+1; events = 616674; sim_end = 0x1.ep+4; attempted = 109; completed = 89; aborted = 10 });
    ("legacy-grid", "siff/legacy@100", { fraction_completed = 0x1.286bca1af286cp-1; avg_transfer_time = 0x1.00f5a4fea6a49p+2; events = 1281464; sim_end = 0x1.ep+4; attempted = 57; completed = 33; aborted = 14 });
    ("legacy-grid", "pushback/legacy@1", { fraction_completed = 0x1p+0; avg_transfer_time = 0x1.48a7cb643112p-2; events = 146671; sim_end = 0x1.0293feb66df13p+4; attempted = 500; completed = 500; aborted = 0 });
    ("legacy-grid", "pushback/legacy@10", { fraction_completed = 0x1.f1077c41df107p-1; avg_transfer_time = 0x1.c2eb3d1dd58eap-1; events = 311342; sim_end = 0x1.ep+4; attempted = 342; completed = 332; aborted = 0 });
    ("legacy-grid", "pushback/legacy@40", { fraction_completed = 0x1.f07c1f07c1f08p-1; avg_transfer_time = 0x1.cb4158aa5bd6dp-1; events = 466100; sim_end = 0x1.ep+4; attempted = 330; completed = 320; aborted = 0 });
    ("legacy-grid", "pushback/legacy@100", { fraction_completed = 0x0p+0; avg_transfer_time = nan; events = 914882; sim_end = 0x1.ep+4; attempted = 12; completed = 0; aborted = 2 });
    ("legacy-grid", "tva/legacy@1", { fraction_completed = 0x1p+0; avg_transfer_time = 0x1.4533411fd8a0ep-2; events = 146486; sim_end = 0x1.ff8f721b09bf4p+3; attempted = 500; completed = 500; aborted = 0 });
    ("legacy-grid", "tva/legacy@10", { fraction_completed = 0x1p+0; avg_transfer_time = 0x1.481fd7e39cfa3p-2; events = 230147; sim_end = 0x1.020de873759b7p+4; attempted = 500; completed = 500; aborted = 0 });
    ("legacy-grid", "tva/legacy@40", { fraction_completed = 0x1p+0; avg_transfer_time = 0x1.4823e7746cdd7p-2; events = 411557; sim_end = 0x1.0211149c9804fp+4; attempted = 500; completed = 500; aborted = 0 });
    ("legacy-grid", "tva/legacy@100", { fraction_completed = 0x1p+0; avg_transfer_time = 0x1.48294d4401abfp-2; events = 774403; sim_end = 0x1.02154c26c4464p+4; attempted = 500; completed = 500; aborted = 0 });
    ("capability-flood", "tva/request@10", { fraction_completed = 0x1.f7d232b592671p-1; avg_transfer_time = 0x1.485206fd444f4p-2; events = 299065; sim_end = 0x1.4p+4; attempted = 626; completed = 616; aborted = 0 });
    ("capability-flood", "tva/authorized@10", { fraction_completed = 0x1.f4de9bd37a6f5p-1; avg_transfer_time = 0x1.c3016eebe257bp-2; events = 254846; sim_end = 0x1.4p+4; attempted = 460; completed = 450; aborted = 0 });
    ("capability-flood", "siff/request@10", { fraction_completed = 0x1.f51b3bea3677dp-1; avg_transfer_time = 0x1.b25b1275f6e82p-2; events = 659725; sim_end = 0x1.4p+4; attempted = 470; completed = 460; aborted = 0 });
    ("capability-flood", "siff/authorized@10", { fraction_completed = 0x1.2d2d2d2d2d2d3p-3; avg_transfer_time = 0x1.384079355b1d8p+0; events = 176483; sim_end = 0x1.4p+4; attempted = 34; completed = 5; aborted = 19 });
    ("capability-flood", "netfence/request@10", { fraction_completed = 0x1.f5270d0456c79p-1; avg_transfer_time = 0x1.b6975c6151de2p-2; events = 723761; sim_end = 0x1.4p+4; attempted = 472; completed = 462; aborted = 0 });
    ("capability-flood", "netfence/authorized@10", { fraction_completed = 0x1.f2e7c66235b02p-1; avg_transfer_time = 0x1.f944de23a73b7p-2; events = 278976; sim_end = 0x1.4p+4; attempted = 391; completed = 381; aborted = 0 });
    ("scale-fanin", "tva/fanin-3x4@100000", { fraction_completed = 0x1p+0; avg_transfer_time = 0x1.19c88daf207ecp-2; events = 1279261; sim_end = 0x1.ep+4; attempted = 500; completed = 500; aborted = 0 })
  ]

let find ~workload ~label =
  List.find_map (fun (w, l, o) -> if w = workload && l = label then Some o else None) table
