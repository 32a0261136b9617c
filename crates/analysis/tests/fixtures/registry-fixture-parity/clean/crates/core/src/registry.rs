pub fn entries() -> Vec<Entry> {
    vec![
        Entry {
            id: "habf",
            build: build_habf,
        },
        Entry {
            id: "demo",
            build: build_demo,
        },
    ]
}
