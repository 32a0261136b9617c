pub const REGISTERED_IDS: [&str; 2] = ["habf", "demo"];
